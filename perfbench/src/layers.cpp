#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "apps/ecg_synthesizer.hpp"
#include "apps/rpeak_detector.hpp"
#include "net/crc16.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

// The paper's measurement protocol: settle 2 s after the last join, give
// up on joining after 30 s (core::MeasurementProtocol defaults).
constexpr sim::Duration kSettle = sim::Duration::seconds(2);
constexpr sim::Duration kJoinDeadline = sim::Duration::seconds(30);
constexpr sim::Duration kStep = sim::Duration::seconds(1);

double component_mj(const std::vector<energy::ComponentEnergy>& rows,
                    const char* name) {
  for (const auto& c : rows) {
    if (c.component == name) return c.joules * 1e3;
  }
  return 0.0;
}

// Keeps replay results observable so the timed loops are not folded away.
volatile std::uint64_t g_sink = 0;

}  // namespace

WardRun run_ward(core::BanNetwork& net, const StepPlan& plan, SpanLog& spans,
                 const char* measure_span,
                 const std::function<void()>& on_steady) {
  WardRun run;
  run.step_ms.reserve(plan.max_steps);
  sim::Simulator& simulator = net.simulator();
  const std::uint64_t allocs_at_start = heap_allocations();
  spans.time("start", "core", [&] { net.start(); });
  run.join_wall_s = spans.time("join", "mac", [&] {
    run.joined = net.run_until_joined(kSettle,
                                      sim::TimePoint::zero() + kJoinDeadline);
  });
  if (!run.joined) return run;

  const sim::TimePoint t0 = simulator.now();
  run.join_sim_s = (t0 - kSettle).to_seconds();
  if (on_steady) on_steady();
  core::SensorNode& focus = net.node(0);
  const auto focus_before = focus.board().breakdown(t0);
  fault::StorageDriver* driver = net.storage_driver();

  const std::uint64_t steady_allocs0 = heap_allocations();
  const std::uint64_t events0 = simulator.events_executed();
  const Clock::time_point wall0 = Clock::now();
  Clock::time_point last = wall0;
  bool exact_closed = false;
  auto close_exact = [&] {
    const std::uint64_t allocs = heap_allocations();
    const sim::TimePoint now = simulator.now();
    run.exact_allocs = allocs - allocs_at_start;
    run.exact_steady_allocs = allocs - steady_allocs0;
    run.exact_steady_events = simulator.events_executed() - events0;
    run.exact_sim_s = now.to_seconds();
    run.exact_steady_sim_s = (now - t0).to_seconds();
    run.exact_steady_wall_s = seconds_since(wall0);
    const auto focus_after = focus.board().breakdown(now);
    run.focus_radio_mj = component_mj(focus_after, "radio") -
                         component_mj(focus_before, "radio");
    run.focus_mcu_mj =
        component_mj(focus_after, "mcu") - component_mj(focus_before, "mcu");
    exact_closed = true;
  };

  sim::TimePoint at = t0;
  for (std::size_t step = 1; step <= plan.max_steps; ++step) {
    at += kStep;
    net.run_until(at);
    const Clock::time_point now = Clock::now();
    run.step_ms.push_back(seconds_between(last, now) * 1e3 /
                          kStep.to_seconds());
    last = now;
    run.pending_max = std::max(run.pending_max, simulator.events_pending());
    if (plan.until_first_death) {
      if (driver != nullptr && driver->stats().depletion_deaths > 0) {
        close_exact();
        break;
      }
      continue;
    }
    if (!exact_closed && step >= plan.exact_steps) close_exact();
    if (exact_closed && seconds_between(wall0, now) >= plan.wall_budget_s) {
      break;
    }
  }
  run.steady_wall_s = seconds_between(wall0, last);
  run.steady_sim_s = (simulator.now() - t0).to_seconds();
  run.events_total = simulator.events_executed();
  spans.record(measure_span, "sim", wall0, last);
  if (driver != nullptr) {
    run.depletion_deaths = driver->stats().depletion_deaths;
    run.died = run.depletion_deaths > 0;
    if (run.died) run.first_death_s = driver->first_death().to_seconds();
  }
  return run;
}

void check_ward(core::BanNetwork& net, const WardRun& run,
                const StepPlan& plan, const std::string& label,
                Result& result) {
  if (!result.check(run.joined, label + ": network joined")) return;
  if (plan.until_first_death) {
    result.check(run.died, label + ": a store depleted before the step cap");
  } else {
    for (std::size_t i = 0; i < net.num_nodes(); ++i) {
      result.check(net.node(i).joined(),
                   label + ": node " + std::to_string(i) + " alive and joined");
    }
  }
  const sim::TimePoint now = net.simulator().now();
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    const double joules = net.node(i).energy(now).total_joules();
    result.check(std::isfinite(joules) && joules > 0.0,
                 label + ": node " + std::to_string(i) +
                     " energy finite and positive");
  }
  result.check(std::isfinite(run.focus_radio_mj) && run.focus_radio_mj > 0.0 &&
                   std::isfinite(run.focus_mcu_mj) && run.focus_mcu_mj > 0.0,
               label + ": focus radio/MCU energy finite and positive");
}

LayerCounts LayerCounts::since(const LayerCounts& b) const {
  LayerCounts d;
  d.frames = frames - b.frames;
  d.frame_bytes = frame_bytes - b.frame_bytes;
  d.deliveries = deliveries - b.deliveries;
  d.corrupt_deliveries = corrupt_deliveries - b.corrupt_deliveries;
  d.collisions = collisions - b.collisions;
  d.radio_transitions = radio_transitions - b.radio_transitions;
  d.mcu_mode_changes = mcu_mode_changes - b.mcu_mode_changes;
  d.meter_transitions = meter_transitions - b.meter_transitions;
  d.tasks = tasks - b.tasks;
  d.radio_tx = radio_tx - b.radio_tx;
  d.rx_windows = rx_windows - b.rx_windows;
  d.data_tx = data_tx - b.data_tx;
  d.control_tx = control_tx - b.control_tx;
  d.beacon_tx = beacon_tx - b.beacon_tx;
  return d;
}

LayerCounter::LayerCounter(std::size_t capture_limit)
    : capture_limit_{capture_limit} {
  frames.reserve(capture_limit);
}

void LayerCounter::on_frame_transmit(const void*, std::uint64_t,
                                     std::uint32_t, const std::uint8_t* bytes,
                                     std::size_t num_bytes, sim::TimePoint,
                                     sim::Duration) {
  ++counts.frames;
  counts.frame_bytes += num_bytes;
  if (capturing && frames.size() < capture_limit_) {
    frames.emplace_back(bytes, bytes + num_bytes);
  }
}

void LayerCounter::on_collision(const void*, std::uint64_t, std::uint64_t) {
  ++counts.collisions;
}

void LayerCounter::on_frame_delivered(const void*, std::uint64_t,
                                      std::uint32_t, bool corrupted) {
  ++counts.deliveries;
  if (corrupted) ++counts.corrupt_deliveries;
}

void LayerCounter::on_radio_state(const void*, int, int, sim::TimePoint) {
  ++counts.radio_transitions;
}

void LayerCounter::on_mcu_mode(const void*, int, int, sim::TimePoint) {
  ++counts.mcu_mode_changes;
}

void LayerCounter::on_meter_transition(const void*, int, sim::TimePoint) {
  ++counts.meter_transitions;
}

void LayerCounter::on_task(std::string_view, std::string_view,
                           sim::TimePoint) {
  ++counts.tasks;
}

void LayerCounter::on_radio_rx_on(std::string_view, sim::TimePoint) {
  ++counts.rx_windows;
}

void LayerCounter::on_radio_tx(std::string_view, std::size_t,
                               sim::TimePoint) {
  ++counts.radio_tx;
}

void LayerCounter::on_packet(std::string_view, net::PacketType type,
                             bool transmit, sim::TimePoint) {
  if (!transmit) return;
  switch (type) {
    case net::PacketType::kData:
      ++counts.data_tx;
      break;
    case net::PacketType::kBeacon:
      ++counts.beacon_tx;
      break;
    default:
      ++counts.control_tx;
      break;
  }
}

// --- Replays -----------------------------------------------------------------

namespace {

/// Self-rescheduling event chain; 24 bytes, stored inline by the kernel.
struct ChainTick {
  sim::Simulator* simulator;
  std::uint64_t* fired;
  std::uint64_t target;
  std::int64_t gap_us;

  void operator()() const {
    if (++*fired < target) {
      simulator->schedule_in(sim::Duration::microseconds(gap_us), *this);
    }
  }
};

template <class F>
double median_ns_per_op(std::size_t reps, std::uint64_t ops, F&& pass) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    pass();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(std::move(samples));
}

}  // namespace

double kernel_ns_per_event(std::size_t pending) {
  pending = std::max<std::size_t>(pending, 1);
  constexpr std::uint64_t kEvents = 2'000'000;
  return median_ns_per_op(5, kEvents, [&] {
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < pending; ++i) {
      // Distinct gaps keep the pending set interleaving like a ward's.
      const auto gap = static_cast<std::int64_t>(1 + (i * 37) % 97);
      simulator.schedule_in(sim::Duration::microseconds(gap),
                            ChainTick{&simulator, &fired, kEvents, gap});
    }
    simulator.run();
    g_sink = g_sink + fired;
  });
}

NetReplay replay_frames(const std::vector<std::vector<std::uint8_t>>& frames) {
  NetReplay out;
  if (frames.empty()) return out;
  std::vector<net::Packet> packets;
  packets.reserve(frames.size());
  out.ok = true;
  for (const auto& f : frames) {
    std::optional<net::Packet> p = net::Packet::deserialize(f);
    if (!p || p->serialize() != f) {
      out.ok = false;
      return out;
    }
    packets.push_back(std::move(*p));
  }
  const std::size_t passes =
      std::max<std::size_t>(1, 200'000 / frames.size());
  const auto ops = static_cast<std::uint64_t>(passes * frames.size());
  out.crc_ns = median_ns_per_op(5, ops, [&] {
    std::uint64_t acc = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& f : frames) acc += net::crc16_ccitt(f);
    }
    g_sink = g_sink + acc;
  });
  out.serialize_ns = median_ns_per_op(5, ops, [&] {
    std::uint64_t acc = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& packet : packets) acc += packet.serialize().size();
    }
    g_sink = g_sink + acc;
  });
  out.deserialize_ns = median_ns_per_op(5, ops, [&] {
    std::uint64_t acc = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& f : frames) {
        acc += net::Packet::deserialize(f)->payload.size();
      }
    }
    g_sink = g_sink + acc;
  });
  return out;
}

AppsReplay replay_apps(const apps::EcgConfig& ecg, double sample_rate_hz,
                       std::uint64_t seed) {
  constexpr std::size_t kSamples = 400'000;
  constexpr double kVref = 2.5;  // hw::Adc12 default reference
  const double period_ns = 1e9 / sample_rate_hz;
  std::vector<std::uint16_t> codes(kSamples);
  AppsReplay out;
  out.synth_ns = median_ns_per_op(5, kSamples, [&] {
    apps::EcgSynthesizer synth{ecg, sim::Rng{seed}};
    for (std::size_t i = 0; i < kSamples; ++i) {
      const auto t = sim::TimePoint::from_ticks(
          std::llround(static_cast<double>(i) * period_ns));
      const double v = std::clamp(synth.sample(t), 0.0, kVref);
      codes[i] = static_cast<std::uint16_t>(std::lround(v / kVref * 4095.0));
    }
  });
  out.rpeak_ns = median_ns_per_op(5, kSamples, [&] {
    apps::RpeakDetector detector{sample_rate_hz};
    std::uint64_t acc = 0;
    for (const std::uint16_t code : codes) acc += detector.step(code).work_cycles;
    g_sink = g_sink + acc;
  });
  return out;
}

double snapshot_us(const core::BanNetwork& net) {
  constexpr std::uint64_t kCalls = 2000;
  return median_ns_per_op(5, kCalls, [&] {
           std::uint64_t acc = 0;
           for (std::uint64_t i = 0; i < kCalls; ++i) {
             acc += net.energy_snapshot().size();
           }
           g_sink = g_sink + acc;
         }) *
         1e-3;
}

}  // namespace perfbench
