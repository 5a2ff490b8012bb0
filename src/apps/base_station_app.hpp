// Base-station collector application.
//
// The paper's collecting device (PC/PDA) is mains powered; it is not part
// of the energy validation, but the experiments need its functional half:
// receive every data frame, keep per-node accounting (packets, bytes,
// sequence gaps, inter-arrival statistics) and decode beat events so tests
// can check end-to-end correctness of the whole stack.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "apps/rpeak_app.hpp"
#include "net/packet.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace bansim::apps {

struct NodeTraffic {
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  sim::TimePoint first_arrival;
  sim::TimePoint last_arrival;
  sim::Summary inter_arrival_ms;
};

class BaseStationApp {
 public:
  /// Feed one received payload (wired to BaseStationMac's data handler).
  void on_data(net::NodeId source, std::span<const std::uint8_t> payload,
               sim::TimePoint when);

  /// Interprets every 5-byte payload as a BeatEvent (Rpeak experiments).
  void set_decode_beats(bool enabled) { decode_beats_ = enabled; }

  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] const std::map<net::NodeId, NodeTraffic>& per_node() const {
    return traffic_;
  }

  /// Reconstructed beat instants per node (arrival - samples_ago / fs).
  [[nodiscard]] const std::vector<std::pair<net::NodeId, sim::TimePoint>>&
  beats() const {
    return beats_;
  }

  [[nodiscard]] std::string render_summary() const;

 private:
  std::map<net::NodeId, NodeTraffic> traffic_;
  std::vector<std::pair<net::NodeId, sim::TimePoint>> beats_;
  std::uint64_t total_packets_{0};
  std::uint64_t total_bytes_{0};
  bool decode_beats_{false};
};

}  // namespace bansim::apps
