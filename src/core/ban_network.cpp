#include "core/ban_network.hpp"

namespace bansim::core {

CellPlan make_cell_plan(const BanConfig& config) {
  CellPlan plan;
  plan.seed = config.seed;
  plan.mac = config.mac;
  plan.tdma = config.tdma;
  plan.aloha = config.aloha;
  plan.csma = config.csma;
  plan.address_offset = config.address_offset;
  plan.stagger = config.stagger;
  plan.app = config.app;
  plan.board = config.board;
  plan.fidelity = config.fidelity;
  plan.streaming = config.streaming;
  plan.rpeak = config.rpeak;
  plan.ecg = config.ecg;
  plan.eeg = config.eeg;
  plan.eeg_signal = config.eeg_signal;
  plan.storage = config.storage;
  plan.roster = config.roster;
  if (plan.roster.empty()) plan.roster.resize(config.num_nodes);
  // num_nodes = 0 is an explicit request for a beacon-only network.
  plan.allow_empty_roster = config.num_nodes == 0 && config.roster.empty();
  return plan;
}

BanNetwork::BanNetwork(const BanConfig& config, os::ModelProbe* probe)
    : config_{config},
      context_{config.seed},
      channel_{context_},
      probe_{probe != nullptr ? probe : &null_probe_},
      nominal_costs_{os::CycleCostModel::platform_defaults()} {
  cell_ = NetworkBuilder::build_cell(context_, channel_, make_cell_plan(config_),
                                     *probe_, nominal_costs_);

  bool any_eeg = false;
  bool any_rpeak = false;
  for (const auto& node : cell_.nodes) {
    any_eeg = any_eeg || node->app_kind() == AppKind::kEegMonitoring;
    any_rpeak = any_rpeak || node->app_kind() == AppKind::kRpeak;
  }

  cell_.bs->set_data_handler([this](net::NodeId src,
                                    std::span<const std::uint8_t> payload,
                                    sim::TimePoint when) {
    cell_.bs->app().on_data(src, payload, when);
    const auto it = eeg_collectors_.find(src);
    if (it != eeg_collectors_.end()) it->second.on_payload(payload);
  });
  // EEG reassembly state exists only for the nodes that stream EEG; with a
  // heterogeneous roster the other nodes' payloads bypass the collectors.
  if (any_eeg) {
    for (auto& node : cell_.nodes) {
      if (node->app_kind() == AppKind::kEegMonitoring) {
        eeg_collectors_.try_emplace(
            node->address(),
            apps::EegCollector{node->eeg_app()->config().channels});
      }
    }
  }
  cell_.bs->app().set_decode_beats(any_rpeak);

  if (config_.use_link_model) {
    // Channel ids follow construction order: bs = 0, node i = i+1, which
    // matches the position vector's convention.
    std::vector<phy::BodyPosition> positions =
        config_.body_positions.empty()
            ? phy::standard_ban_layout(cell_.nodes.size())
            : config_.body_positions;
    link_model_ = std::make_unique<phy::LinkModel>(
        std::move(positions), config_.link_budget, config_.seed);
    channel_.set_error_model(
        [model = link_model_.get()](std::uint32_t tx, std::uint32_t rx,
                                    std::size_t frame_bytes) {
          return model->frame_error_rate(tx, rx, frame_bytes);
        },
        sim::Rng::stream(config_.seed, "channel/ber"));
  }

  if (config_.fault_plan.any()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(context_, config_.fault_plan);
    // Roster order matches channel-id order (bs = 0, node i = i+1), which
    // is the numbering FaultPlan clauses use.
    for (auto& node : cell_.nodes) {
      injector_->add_node(node->mac_base(), node->board());
    }
    if (config_.fault_plan.touches_channel()) {
      injector_->install_error_model(channel_, link_model_.get());
    }
  }

  // The storage driver exists only when some node actually carries a live
  // store; nodes whose (possibly overridden) storage stays disabled keep
  // running off the bench supply and are simply not registered.
  for (auto& node : cell_.nodes) {
    if (node->energy_store() == nullptr) continue;
    if (!storage_driver_) {
      storage_driver_ = std::make_unique<fault::StorageDriver>(context_);
    }
    storage_driver_->add_node(node->mac_base(), node->board(),
                              *node->energy_store());
  }
}

void BanNetwork::start() {
  NetworkBuilder::start_cell(context_, cell_);
  if (injector_) injector_->start();
  if (storage_driver_) storage_driver_->start();
}

void BanNetwork::run_until(sim::TimePoint until) {
  context_.simulator.run_until(until);
}

bool BanNetwork::all_joined() const { return cell_.all_joined(); }

bool BanNetwork::run_until_joined(sim::Duration settle,
                                  sim::TimePoint deadline) {
  const sim::Duration poll = sim::Duration::milliseconds(50);
  while (!all_joined()) {
    if (context_.simulator.now() >= deadline) return false;
    context_.simulator.run_until(context_.simulator.now() + poll);
  }
  context_.simulator.run_until(context_.simulator.now() + settle);
  return true;
}

apps::EegCollector* BanNetwork::eeg_collector(net::NodeId node) {
  const auto it = eeg_collectors_.find(node);
  return it == eeg_collectors_.end() ? nullptr : &it->second;
}

std::vector<energy::NodeEnergy> BanNetwork::energy_snapshot() const {
  return cell_.energy_snapshot(context_.simulator.now());
}

}  // namespace bansim::core
