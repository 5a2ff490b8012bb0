#include "core/network_builder.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "sim/rng.hpp"

namespace bansim::core {

std::string cell_stream_name(CellStream stream, std::size_t cell,
                             std::size_t cells, net::NodeId address) {
  if (cells == 1) {
    switch (stream) {
      case CellStream::kSkew: return "skew";
      case CellStream::kStagger: return "stagger";
      case CellStream::kMac: return "mac/node" + std::to_string(address);
      case CellStream::kSignal: return "ecg/node" + std::to_string(address);
      case CellStream::kBaseStation: return "bs";
    }
  }
  const std::string c = std::to_string(cell);
  switch (stream) {
    case CellStream::kSkew: return "skew/cell" + c;
    case CellStream::kStagger: return "stagger/" + c;
    case CellStream::kMac:
      return "mac/cell" + c + "/" + std::to_string(address);
    case CellStream::kSignal:
      return "ecg/cell" + c + "/" + std::to_string(address);
    case CellStream::kBaseStation: return "bs" + c;
  }
  return {};
}

net::NodeId node_address(const BanConfig& config, std::size_t i) {
  if (i < config.roster.size() && config.roster[i].address != 0) {
    return config.roster[i].address;
  }
  return static_cast<net::NodeId>(config.address_offset + i + 1);
}

bool BanCell::all_joined() const {
  for (const auto& node : nodes_) {
    if (!node->joined()) return false;
  }
  return true;
}

std::vector<energy::NodeEnergy> BanCell::energy_snapshot(
    sim::TimePoint now) const {
  std::vector<energy::NodeEnergy> out;
  out.reserve(nodes_.size() + 1);
  for (const auto& node : nodes_) out.push_back(node->energy(now));
  out.push_back(bs_->energy(now));
  return out;
}

namespace {

void validate_cell(const BanConfig& config) {
  if (config.mac == MacKind::kTdma) {
    if (const std::string problem = config.tdma.validate(); !problem.empty()) {
      throw std::invalid_argument("TdmaConfig: " + problem);
    }
  } else if (config.mac == MacKind::kCsmaCa) {
    config.csma.validate();  // throws std::invalid_argument with the key name
  }
}

/// Spec of every node of a roster-less (homogeneous) cell.
const NodeSpec kDefaultSpec{};

}  // namespace

BanCell NetworkBuilder::build_cell(sim::SimContext& context,
                                   phy::Channel& channel,
                                   BanConfig cell_config, std::size_t cell,
                                   std::size_t cells, os::ModelProbe& probe,
                                   const os::CycleCostModel& nominal_costs) {
  validate_cell(cell_config);

  BanCell built{std::move(cell_config)};
  const BanConfig& config = built.config_;
  const std::size_t num_nodes = config.effective_nodes();

  // Warm up the kernel before any component constructs: each stack keeps a
  // small constellation of timers/ISRs/frame deliveries in flight, and
  // every component interns its node name once.  Reserving here keeps cell
  // construction and boot staggering from growing the arena incrementally.
  const std::size_t stacks = num_nodes + 1;  // nodes + base station
  context.simulator.reserve_events(16 * stacks);
  context.tracer.reserve(stacks + 1);  // node names + the global ""

  // Per-component deterministic randomness: the same seed reproduces the
  // same network, and the skew/signal/mac streams are independent, so a
  // model-fidelity run (which zeroes tolerance) sees identical signal and
  // MAC draws.
  sim::Rng skew_rng = sim::Rng::stream(
      config.seed, cell_stream_name(CellStream::kSkew, cell, cells));

  const hw::BoardParams bs_board =
      apply_fidelity(config.board, config.fidelity);
  const double bs_tol = bs_board.mcu.clock_tolerance;
  const os::CycleCostModel* bs_nominal =
      config.fidelity == Fidelity::kModel ? &nominal_costs : nullptr;
  const double bs_skew = skew_rng.uniform(-bs_tol, bs_tol);
  built.bs_ = std::make_unique<BaseStationStack>(
      context, channel, cell_stream_name(CellStream::kBaseStation, cell, cells),
      bs_board, bs_skew, config.mac, config.tdma, config.aloha, config.csma,
      probe, bs_nominal);

  built.nodes_.reserve(num_nodes);
  // Duplicate radio addresses make the channel's hardware address filter
  // deliver one node's unicast traffic to another — a mis-assembled roster,
  // not a simulatable topology.  Hard-error before any stack is built.
  std::unordered_set<net::NodeId> used_addresses;
  const net::NodeId bs_address = base_station_address(config);
  used_addresses.insert(bs_address);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const NodeSpec& spec =
        config.roster.empty() ? kDefaultSpec : config.roster[i];

    NodeStackInit init;
    init.mac = config.mac;
    init.app = spec.app.value_or(config.app);
    init.tdma = config.tdma;
    init.aloha = config.aloha;
    init.csma = config.csma;
    init.csma_gts = spec.csma_gts.value_or(false);
    if (init.csma_gts && config.mac != MacKind::kCsmaCa) {
      throw std::invalid_argument(
          "roster entry " + std::to_string(i) +
          " requests a GTS but the cell does not run CSMA/CA");
    }
    if (init.csma_gts && config.csma.gts_slots == 0) {
      throw std::invalid_argument(
          "roster entry " + std::to_string(i) +
          " requests a GTS but csma.gts_slots is 0");
    }
    init.streaming = spec.streaming.value_or(config.streaming);
    init.rpeak = spec.rpeak.value_or(config.rpeak);
    init.ecg = spec.ecg.value_or(config.ecg);
    init.eeg = spec.eeg.value_or(config.eeg);
    init.eeg_signal = spec.eeg_signal.value_or(config.eeg_signal);

    const Fidelity fidelity = spec.fidelity.value_or(config.fidelity);
    init.board = apply_fidelity(spec.board.value_or(config.board), fidelity);

    init.storage = spec.storage.value_or(config.storage);
    if (const std::string problem = init.storage.validate(); !problem.empty()) {
      throw std::invalid_argument("StorageParams (roster entry " +
                                  std::to_string(i) + "): " + problem);
    }

    // Always consume the skew stream, even when the spec pins the value:
    // the draw positions of the remaining nodes must not shift.
    const double tol = init.board.mcu.clock_tolerance;
    const double drawn_skew = skew_rng.uniform(-tol, tol);
    init.clock_skew = spec.clock_skew.value_or(drawn_skew);

    init.address = node_address(config, i);
    if (!used_addresses.insert(init.address).second) {
      throw std::invalid_argument(
          "duplicate radio address " + std::to_string(init.address) +
          " in roster entry " + std::to_string(i) +
          (init.address == bs_address ? " (collides with the base station)"
                                      : ""));
    }
    init.name = "node" + std::to_string(init.address);
    init.eeg_seed = config.seed ^ sim::fnv1a64("eeg/" + init.name);

    const sim::Rng mac_rng = sim::Rng::stream(
        config.seed,
        cell_stream_name(CellStream::kMac, cell, cells, init.address));
    const sim::Rng signal_rng = sim::Rng::stream(
        config.seed,
        cell_stream_name(CellStream::kSignal, cell, cells, init.address));

    const os::CycleCostModel* nominal =
        fidelity == Fidelity::kModel ? &nominal_costs : nullptr;
    built.nodes_.push_back(std::make_unique<NodeStack>(
        context, channel, init, mac_rng, signal_rng, probe, nominal));
  }
  return built;
}

void NetworkBuilder::start_cell(sim::SimContext& context, BanCell& built,
                                std::size_t cell, std::size_t cells) {
  const BanConfig& config = built.config_;
  built.bs_->start();
  sim::Rng stagger_rng = sim::Rng::stream(
      config.seed, cell_stream_name(CellStream::kStagger, cell, cells));
  for (std::size_t i = 0; i < built.nodes_.size(); ++i) {
    // As with skew: draw for every node so pinned offsets don't shift the
    // draws of later nodes.
    const double drawn_s =
        stagger_rng.uniform(0.0, config.stagger.to_seconds());
    const std::optional<sim::Duration> pinned =
        config.roster.empty() ? std::nullopt : config.roster[i].boot_offset;
    const sim::Duration offset =
        pinned.value_or(sim::Duration::from_seconds(drawn_s));
    NodeStack* stack = built.nodes_[i].get();
    context.simulator.schedule_in(offset, [stack] { stack->start(); });
  }
}

}  // namespace bansim::core
