#include "core/ban_network.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace bansim::core {

namespace {

std::string cell_pair(std::size_t a, std::size_t b) {
  return "cells " + std::to_string(a) + " and " + std::to_string(b);
}

/// Rules that only a list of cells can break; each cell's own roster is
/// checked by the builder.
void validate_cells(const std::vector<BanConfig>& cells) {
  if (cells.empty()) {
    throw std::invalid_argument("BanNetwork needs at least one cell");
  }
  if (cells.size() == 1) return;
  std::unordered_map<net::NodeId, std::size_t> owner;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const BanConfig& config = cells[c];
    const std::string cell = "cell " + std::to_string(c);
    // Link-model positions are indexed by channel id and fault streams
    // derive from the shared context seed: neither splits per cell.
    if (config.use_link_model) {
      throw std::invalid_argument(
          cell + " sets use_link_model, which serves single-cell networks "
                 "only");
    }
    if (config.fault_plan.any()) {
      throw std::invalid_argument(
          cell + " carries an active fault_plan, which serves single-cell "
                 "networks only");
    }
    for (std::size_t other = 0; other < c; ++other) {
      if (cells[other].pan() == config.pan()) {
        throw std::invalid_argument(
            cell_pair(other, c) + " share pan_id " +
            std::to_string(config.pan()) +
            "; co-located cells need distinct pan ids");
      }
    }
    const auto claim = [&](net::NodeId address) {
      const auto [it, fresh] = owner.try_emplace(address, c);
      if (!fresh && it->second != c) {
        throw std::invalid_argument(
            cell_pair(it->second, c) + " both use radio address " +
            std::to_string(address) +
            "; co-located cells need disjoint address ranges");
      }
    };
    claim(base_station_address(config));
    for (std::size_t i = 0; i < config.effective_nodes(); ++i) {
      claim(node_address(config, i));
    }
  }
}

}  // namespace

BanNetwork::BanNetwork(const BanConfig& config, os::ModelProbe* probe)
    : context_{config.seed},
      channel_{context_},
      probe_{probe != nullptr ? probe : &null_probe_},
      nominal_costs_{os::CycleCostModel::platform_defaults()} {
  cells_.reserve(1);
  cells_.push_back(NetworkBuilder::build_cell(context_, channel_, config, 0, 1,
                                              *probe_, nominal_costs_));
  wire_cell(cells_[0]);
  wire_channel();
}

BanNetwork::BanNetwork(std::vector<BanConfig> cells, os::ModelProbe* probe)
    : context_{cells.empty() ? 1 : cells.front().seed},
      channel_{context_},
      probe_{probe != nullptr ? probe : &null_probe_},
      nominal_costs_{os::CycleCostModel::platform_defaults()} {
  validate_cells(cells);
  cells_.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells_.push_back(NetworkBuilder::build_cell(
        context_, channel_, std::move(cells[c]), c, cells.size(), *probe_,
        nominal_costs_));
    wire_cell(cells_.back());
  }
  wire_channel();
}

void BanNetwork::wire_cell(BanCell& cell) {
  bool any_rpeak = false;
  for (std::size_t i = 0; i < cell.num_nodes(); ++i) {
    NodeStack& node = cell.node(i);
    any_rpeak = any_rpeak || node.app_kind() == AppKind::kRpeak;
    // EEG reassembly state exists only for the nodes that stream EEG; with a
    // heterogeneous roster the other nodes' payloads bypass the collectors.
    if (node.app_kind() == AppKind::kEegMonitoring) {
      eeg_collectors_.try_emplace(
          node.address(),
          apps::EegCollector{node.eeg_app()->config().channels});
    }
  }

  BaseStationStack* bs = &cell.base_station();
  bs->set_data_handler([this, bs](net::NodeId src,
                                  std::span<const std::uint8_t> payload,
                                  sim::TimePoint when) {
    bs->app().on_data(src, payload, when);
    const auto it = eeg_collectors_.find(src);
    if (it != eeg_collectors_.end()) it->second.on_payload(payload);
  });
  bs->app().set_decode_beats(any_rpeak);

  // The storage driver exists only when some node actually carries a live
  // store; nodes whose (possibly overridden) storage stays disabled keep
  // running off the bench supply and are simply not registered.
  for (std::size_t i = 0; i < cell.num_nodes(); ++i) {
    NodeStack& node = cell.node(i);
    if (node.energy_store() == nullptr) continue;
    if (!storage_driver_) {
      storage_driver_ = std::make_unique<fault::StorageDriver>(context_);
    }
    storage_driver_->add_node(node.mac_base(), node.board(),
                              *node.energy_store());
  }
}

void BanNetwork::wire_channel() {
  const BanConfig& lone = config();
  if (lone.use_link_model) {
    // Channel ids follow construction order: bs = 0, node i = i+1, which
    // matches the position vector's convention.
    std::vector<phy::BodyPosition> positions =
        lone.body_positions.empty() ? phy::standard_ban_layout(num_nodes())
                                    : lone.body_positions;
    link_model_ = std::make_unique<phy::LinkModel>(
        std::move(positions), lone.link_budget, lone.seed);
    channel_.set_error_model(
        [model = link_model_.get()](std::uint32_t tx, std::uint32_t rx,
                                    std::size_t frame_bytes) {
          return model->frame_error_rate(tx, rx, frame_bytes);
        },
        sim::Rng::stream(lone.seed, "channel/ber"));
  }

  if (lone.fault_plan.any()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(context_, lone.fault_plan);
    // Roster order matches channel-id order (bs = 0, node i = i+1), which
    // is the numbering FaultPlan clauses use.
    for (std::size_t i = 0; i < num_nodes(); ++i) {
      injector_->add_node(node(i).mac_base(), node(i).board());
    }
    if (lone.fault_plan.touches_channel()) {
      injector_->install_error_model(channel_, link_model_.get());
    }
  }
}

void BanNetwork::start() {
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    NetworkBuilder::start_cell(context_, cells_[c], c, cells_.size());
  }
  if (injector_) injector_->start();
  if (storage_driver_) storage_driver_->start();
}

void BanNetwork::run_until(sim::TimePoint until) {
  context_.simulator.run_until(until);
}

bool BanNetwork::all_joined() const {
  for (const BanCell& cell : cells_) {
    if (!cell.all_joined()) return false;
  }
  return true;
}

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

}  // namespace bansim::core
