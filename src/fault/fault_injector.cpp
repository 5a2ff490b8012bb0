#include "fault/fault_injector.hpp"

#include <algorithm>

#include "sim/trace.hpp"

namespace bansim::fault {

namespace {
hw::BatteryParams brownout_cell(const BrownoutParams& p) {
  hw::BatteryParams cell;
  cell.capacity_mah = p.capacity_mah;
  return cell;
}
}  // namespace

FaultInjector::FaultInjector(sim::SimContext& context, const FaultPlan& plan)
    : context_{context}, plan_{plan},
      fade_rng_{sim::Rng::stream(context.seed(), "fault/fade")},
      crash_rng_{sim::Rng::stream(context.seed(), "fault/crash")} {}

void FaultInjector::add_node(mac::NodeMacBase& mac, hw::Board& board) {
  NodeRec rec{&mac, &board, hw::Battery{brownout_cell(plan_.brownout)}, 0.0,
              false};
  nodes_.push_back(std::move(rec));
}

double FaultInjector::board_joules(const NodeRec& rec) const {
  double total = 0.0;
  for (const auto& c : rec.board->breakdown(context_.simulator.now())) {
    total += c.joules;
  }
  return total;
}

bool FaultInjector::interferer_burst_now() const {
  const sim::Duration since = context_.simulator.now().since_epoch();
  return since.mod(plan_.interferer.period) < plan_.interferer.burst;
}

double FaultInjector::composed_fer(const phy::LinkModel* link_model,
                                   std::uint32_t tx, std::uint32_t rx,
                                   std::size_t bytes) const {
  double extra_loss_db = 0.0;
  double pass = 1.0;  // probability of surviving every direct-FER impairment
  if (plan_.fade.enabled && fade_bad_) {
    extra_loss_db += plan_.fade.extra_loss_db;
    pass *= 1.0 - plan_.fade.fer;
  }
  if (plan_.interferer.enabled && interferer_burst_now()) {
    pass *= 1.0 - plan_.interferer.fer;
  }
  const sim::TimePoint now = context_.simulator.now();
  for (const ShadowEpisode& ep : plan_.episodes) {
    if (now < ep.start || now >= ep.start + ep.duration) continue;
    if (ep.node != 0 && ep.node != tx && ep.node != rx) continue;
    extra_loss_db += ep.extra_loss_db;
    pass *= 1.0 - ep.fer;
  }
  if (link_model != nullptr) {
    pass *= 1.0 - link_model->frame_error_rate(tx, rx, bytes, extra_loss_db);
  }
  return std::clamp(1.0 - pass, 0.0, 1.0);
}

void FaultInjector::install_error_model(phy::Channel& channel,
                                        const phy::LinkModel* link_model) {
  channel.set_error_model(
      [this, link_model](std::uint32_t tx, std::uint32_t rx,
                         std::size_t bytes) {
        return composed_fer(link_model, tx, rx, bytes);
      },
      sim::Rng::stream(context_.seed(), "channel/ber"));
}

void FaultInjector::start() {
  if (started_) return;
  started_ = true;
  stopped_ = false;

  if (plan_.fade.enabled) {
    context_.simulator.schedule_in(plan_.fade.step, [this] { step_fade(); });
  }
  if (plan_.crashes.enabled && !nodes_.empty()) {
    context_.simulator.schedule_in(plan_.crashes.check,
                                   [this] { step_crash_churn(); });
  }
  if (plan_.brownout.enabled && !nodes_.empty()) {
    // Baseline: energy spent before start() was paid by the bench supply.
    for (NodeRec& rec : nodes_) rec.drawn_joules = board_joules(rec);
    context_.simulator.schedule_in(plan_.brownout.check,
                                   [this] { step_brownout(); });
  }
  for (const FaultEvent& event : plan_.events) {
    context_.simulator.schedule_at(event.at,
                                   [this, event] { fire_event(event); });
  }
}

void FaultInjector::stop() { stopped_ = true; }

void FaultInjector::step_fade() {
  if (stopped_) return;
  const double flip = fade_bad_ ? plan_.fade.p_exit : plan_.fade.p_enter;
  if (fade_rng_.chance(flip)) {
    fade_bad_ = !fade_bad_;
    ++stats_.fade_transitions;
    context_.tracer.emit(context_.simulator.now(),
                         sim::TraceCategory::kChannel, sim::TraceNodeId{0},
                         [&](sim::TraceMessage& m) {
                           m << "fade -> " << (fade_bad_ ? "BAD" : "good");
                         });
  }
  context_.simulator.schedule_in(plan_.fade.step, [this] { step_fade(); });
}

void FaultInjector::step_crash_churn() {
  if (stopped_) return;
  const double check_s = plan_.crashes.check.to_seconds();
  const double p = std::min(1.0, plan_.crashes.rate_hz * check_s);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // One draw per node per check regardless of state, so the stream stays
    // aligned however the cell happens to be faring.
    const bool hit = crash_rng_.chance(p);
    NodeRec& rec = nodes_[i];
    if (!hit || rec.dead || rec.mac->crashed()) continue;
    const double down_s = crash_rng_.uniform(plan_.crashes.min_down.to_seconds(),
                                             plan_.crashes.max_down.to_seconds());
    ++stats_.stochastic_crashes;
    rec.mac->crash();
    context_.simulator.schedule_in(
        sim::Duration::from_seconds(down_s), [this, i] {
          if (!nodes_[i].dead) nodes_[i].mac->reboot();
        });
  }
  context_.simulator.schedule_in(plan_.crashes.check,
                                 [this] { step_crash_churn(); });
}

void FaultInjector::step_brownout() {
  if (stopped_) return;
  const double check_s = plan_.brownout.check.to_seconds();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeRec& rec = nodes_[i];
    if (rec.dead) continue;
    const double cumulative = board_joules(rec);
    const double delta = std::max(0.0, cumulative - rec.drawn_joules);
    rec.drawn_joules = cumulative;
    rec.battery.draw(delta);
    if (rec.battery.depleted()) {
      rec.dead = true;
      ++stats_.permanent_deaths;
      if (!rec.mac->crashed()) rec.mac->crash();
      context_.tracer.emit(context_.simulator.now(),
                           sim::TraceCategory::kEnergy, sim::TraceNodeId{0},
                           [&](sim::TraceMessage& m) {
                             m << rec.board->name() << " battery flat: dead";
                           });
      continue;
    }
    // Loaded terminal voltage: linear-sag OCV minus the I*ESR drop of the
    // average draw over the sampling window.  A crashed node draws almost
    // nothing, so the terminal voltage recovers and the reboot sticks.
    const double ocv = rec.battery.open_circuit_volts();
    const double watts = delta / check_s;
    const double v_loaded = ocv - (watts / ocv) * plan_.brownout.esr_ohms;
    if (v_loaded < plan_.brownout.brownout_volts && !rec.mac->crashed()) {
      ++stats_.brownouts;
      context_.tracer.emit(context_.simulator.now(),
                           sim::TraceCategory::kEnergy, sim::TraceNodeId{0},
                           [&](sim::TraceMessage& m) {
                             m << rec.board->name() << " brown-out at "
                               << v_loaded << " V";
                           });
      rec.mac->crash();
      context_.simulator.schedule_in(plan_.brownout.recovery, [this, i] {
        if (!nodes_[i].dead) nodes_[i].mac->reboot();
      });
    }
  }
  context_.simulator.schedule_in(plan_.brownout.check,
                                 [this] { step_brownout(); });
}

void FaultInjector::fire_event(const FaultEvent& event) {
  if (event.node == 0 || event.node > nodes_.size()) return;
  NodeRec& rec = nodes_[event.node - 1];
  ++stats_.scripted_faults;
  context_.tracer.emit(context_.simulator.now(), sim::TraceCategory::kKernel,
                       sim::TraceNodeId{0}, [&](sim::TraceMessage& m) {
                         m << "inject " << to_string(event.kind) << " on "
                           << rec.board->name();
                       });
  switch (event.kind) {
    case FaultKind::kCrash: {
      if (rec.dead || rec.mac->crashed()) return;
      const std::size_t i = event.node - 1;
      rec.mac->crash();
      context_.simulator.schedule_in(event.down, [this, i] {
        if (!nodes_[i].dead) nodes_[i].mac->reboot();
      });
      break;
    }
    case FaultKind::kRadioLockup:
      rec.board->radio().force_lockup();
      break;
    case FaultKind::kSkewStep:
      rec.board->mcu().set_clock_skew(rec.board->mcu().clock_skew() +
                                      event.skew_delta);
      break;
  }
}

}  // namespace bansim::fault
