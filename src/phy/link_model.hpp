// Body-area link model: positions on the body, log-distance path loss with
// per-link shadowing, and a GFSK link budget that turns received power into
// a frame error probability.
//
// The paper validates on an ideal short-range channel (all five nodes in
// range, losses only from collisions), but motivates the simulator with
// "different working conditions, applications and topologies of BANs".
// This model supplies that axis: nodes placed on chest/head/limbs, a
// creeping-wave-like path-loss exponent around the torso, and the nRF2401
// link budget (-5 dBm TX, ~-80 dBm sensitivity at 1 Mbps), producing
// per-link bit-error rates that the channel turns into CRC-failed frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace bansim::phy {

/// A device position on (or near) the body, metres in torso coordinates.
struct BodyPosition {
  std::string site;  ///< e.g. "chest", "head", "left_wrist"
  double x{0};
  double y{0};
  double z{0};
};

/// The paper's typical deployment (Section 3): a biopotential node on each
/// limb, one on the chest, one on the head; index 0 is the base station
/// (worn at the hip).  Returns 1 + node_count entries, node_count <= 6.
[[nodiscard]] std::vector<BodyPosition> standard_ban_layout(
    std::size_t node_count);

/// Radio-link parameters (nRF2401 class).
struct LinkBudget {
  double tx_power_dbm{-5.0};        ///< ShockBurst at the platform setting
  double sensitivity_dbm{-80.0};    ///< 1 Mbps GFSK
  /// Effective noise floor including noise figure and implementation
  /// losses; -91 dBm puts BER ~ 1e-3 right at the sensitivity limit, the
  /// usual sensitivity definition.
  double noise_floor_dbm{-91.0};
  double path_loss_exponent{3.0};   ///< around-torso creeping wave
  double reference_loss_db{35.0};   ///< at d0 = 10 cm, 2.4 GHz on-body
  double reference_distance_m{0.1};
  double shadowing_sigma_db{3.0};   ///< per-link log-normal shadowing
};

class LinkModel {
 public:
  /// Builds the pairwise link table for `positions` (index = channel id);
  /// shadowing draws are deterministic per (seed, link).
  LinkModel(std::vector<BodyPosition> positions, const LinkBudget& budget,
            std::uint64_t seed);

  [[nodiscard]] std::size_t num_devices() const { return positions_.size(); }
  [[nodiscard]] const BodyPosition& position(std::size_t i) const {
    return positions_[i];
  }

  /// Euclidean distance between devices, metres (floored at d0).
  [[nodiscard]] double distance_m(std::size_t a, std::size_t b) const;

  /// Path loss including the link's shadowing term, dB.
  [[nodiscard]] double path_loss_db(std::size_t a, std::size_t b) const;

  /// Received power at b for a transmission from a, dBm.
  [[nodiscard]] double rx_power_dbm(std::size_t a, std::size_t b) const;

  /// Bit error probability on the link (non-coherent GFSK approximation
  /// BER = 0.5 * exp(-SNR/2), SNR linear).  `extra_loss_db` is transient
  /// attenuation on top of the static path loss (burst fade, a shadowing
  /// episode); zero reproduces the static link exactly.
  [[nodiscard]] double bit_error_rate(std::size_t a, std::size_t b,
                                      double extra_loss_db = 0.0) const;

  /// Frame error probability for `frame_bytes` MAC bytes on the link:
  /// 1 - (1-BER)^bits over payload + preamble/address/CRC overhead bits,
  /// and 1.0 outright when the link closes below sensitivity.  A zero-byte
  /// frame still risks its 48 overhead bits.
  [[nodiscard]] double frame_error_rate(std::size_t a, std::size_t b,
                                        std::size_t frame_bytes,
                                        double extra_loss_db = 0.0) const;

  /// True when rx power clears the receiver sensitivity.
  [[nodiscard]] bool connected(std::size_t a, std::size_t b,
                               double extra_loss_db = 0.0) const;

  [[nodiscard]] const LinkBudget& budget() const { return budget_; }

 private:
  std::vector<BodyPosition> positions_;
  LinkBudget budget_;
  std::vector<double> shadowing_db_;  ///< row-major pairwise, symmetric
};

}  // namespace bansim::phy
