// ECG streaming application (Section 5.1).
//
// Samples `channels` ECG channels at a configurable rate, packs the 12-bit
// ADC codes into fixed-size payloads (18 bytes in the paper) and hands each
// full payload to the MAC for transmission in the node's next TDMA slot.
// Every sample tick the driver reads the complete 25-channel ASIC frame —
// the platform constraint that forces the MCU to run at full speed and
// makes its energy non-negligible (the paper's Section 5.1 observation).
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac_base.hpp"
#include "os/node_os.hpp"
#include "sim/simulator.hpp"

namespace bansim::apps {

struct StreamingConfig {
  double sample_rate_hz{205.0};    ///< per channel
  std::uint32_t channels{2};
  std::size_t payload_bytes{18};   ///< fixed MAC payload per TDMA cycle
};

class EcgStreamingApp {
 public:
  EcgStreamingApp(sim::Simulator& simulator, os::NodeOs& node_os,
                  mac::NodeMacBase& mac, const StreamingConfig& config);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t samples_acquired() const { return samples_; }
  [[nodiscard]] std::uint64_t payloads_queued() const { return payloads_; }
  [[nodiscard]] const StreamingConfig& config() const { return config_; }

  /// Cycle cost of reading the full 25-channel ASIC frame once (~45 us per
  /// channel at 8 MHz: ADC12 sample-and-hold, conversion, store).  The ASIC
  /// requires full-frame readout even when only 2 channels are kept — the
  /// reason the paper runs the MCU at maximum speed (Section 5.1).
  static constexpr std::uint64_t kFrameReadCycles = 25 * 360;
  /// Extra per-channel handling (store, scale) for the channels kept.
  static constexpr std::uint64_t kKeepChannelCycles = 40;

 private:
  void on_sample_tick();

  sim::Simulator& simulator_;
  os::NodeOs& os_;
  mac::NodeMacBase& mac_;
  StreamingConfig config_;
  std::vector<std::uint16_t> pending_codes_;
  std::vector<std::uint8_t> buffer_;
  os::TimerService::TimerId timer_{os::TimerService::kInvalidTimer};
  std::uint64_t samples_{0};
  std::uint64_t payloads_{0};
};

/// Packs 12-bit codes two-per-three-bytes (used by the app and its tests).
[[nodiscard]] std::vector<std::uint8_t> pack12(
    const std::vector<std::uint16_t>& codes);

/// Inverse of pack12 (base-station side / tests).
[[nodiscard]] std::vector<std::uint16_t> unpack12(
    const std::vector<std::uint8_t>& bytes);

}  // namespace bansim::apps
