// Multi-channel EEG monitoring application.
//
// The third application domain of the platform (Section 3: "monitoring up
// to 24 channels EEG"): samples N EEG channels, delta-compresses fixed
// blocks of samples per channel, fragments the compressed block over the
// small ShockBurst payload, and queues the fragments for the node's TDMA
// slot.  The base-station side (EegCollector) reassembles and decodes,
// recovering the exact sample stream when no fragment was lost.
//
// Bandwidth bookkeeping is explicit: required_bandwidth() vs the MAC's one
// frame per cycle tells whether a configuration fits, and the app counts
// blocks it had to drop when the radio budget is overcommitted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/delta_codec.hpp"
#include "apps/eeg_synthesizer.hpp"
#include "mac/mac_base.hpp"
#include "net/fragment.hpp"
#include "os/node_os.hpp"
#include "sim/simulator.hpp"

namespace bansim::apps {

struct EegAppConfig {
  std::uint32_t channels{8};
  double sample_rate_hz{64.0};
  std::uint32_t block_samples{16};  ///< samples per channel per block
  std::size_t max_payload{net::kMaxPayloadBytes};
};

class EegApp {
 public:
  EegApp(sim::Simulator& simulator, os::NodeOs& node_os,
         mac::NodeMacBase& mac, const EegAppConfig& config,
         const EegSynthesizer& source);

  void start();
  void stop();

  /// Mean application bytes/second the radio must carry (compressed blocks
  /// + fragment headers), assuming ~1.15 B per delta-coded sample.
  [[nodiscard]] double required_bandwidth_bps() const;

  /// Bytes/second one frame per TDMA `cycle` can carry.
  [[nodiscard]] double slot_bandwidth_bps(sim::Duration cycle) const;

  [[nodiscard]] std::uint64_t samples_acquired() const { return samples_; }
  [[nodiscard]] std::uint64_t blocks_sent() const { return blocks_sent_; }
  [[nodiscard]] std::uint64_t blocks_dropped() const { return blocks_dropped_; }
  [[nodiscard]] const EegAppConfig& config() const { return config_; }

 private:
  void on_sample_tick();
  void emit_block();

  sim::Simulator& simulator_;
  os::NodeOs& os_;
  mac::NodeMacBase& mac_;
  EegAppConfig config_;
  const EegSynthesizer& source_;
  std::vector<std::vector<std::uint16_t>> buffers_;  ///< per channel
  std::uint8_t next_block_id_{0};
  os::TimerService::TimerId timer_{os::TimerService::kInvalidTimer};
  std::uint64_t samples_{0};
  std::uint64_t blocks_sent_{0};
  std::uint64_t blocks_dropped_{0};
};

/// Base-station-side reassembly and decode of EegApp traffic.
class EegCollector {
 public:
  explicit EegCollector(std::uint32_t channels) : channels_{channels} {}

  /// Feeds one received MAC payload (a fragment).
  void on_payload(std::span<const std::uint8_t> payload);

  /// Recovered samples per channel, in arrival order.
  [[nodiscard]] const std::vector<std::vector<std::uint16_t>>& samples() const {
    return recovered_;
  }
  [[nodiscard]] std::uint64_t blocks_decoded() const { return blocks_decoded_; }
  [[nodiscard]] std::uint64_t decode_failures() const { return decode_failures_; }
  [[nodiscard]] const net::Reassembler& reassembler() const { return reassembler_; }

 private:
  std::uint32_t channels_;
  net::Reassembler reassembler_;
  std::vector<std::vector<std::uint16_t>> recovered_;
  std::uint64_t blocks_decoded_{0};
  std::uint64_t decode_failures_{0};
};

}  // namespace bansim::apps
