#include "phy/link_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bansim::phy {

std::vector<BodyPosition> standard_ban_layout(std::size_t node_count) {
  assert(node_count <= 6);
  // Torso coordinates, metres: x to the right, y up, z out of the chest.
  static const BodyPosition kSites[] = {
      {"hip", 0.10, 0.00, 0.05},          // base station (belt-worn)
      {"chest", 0.00, 0.35, 0.08},        // ECG node
      {"head", 0.00, 0.70, 0.02},         // EEG node
      {"left_wrist", -0.45, 0.05, 0.00},  // EMG, left arm
      {"right_wrist", 0.45, 0.05, 0.00},  // EMG, right arm
      {"left_ankle", -0.12, -0.95, 0.00}, // EMG, left leg
      {"right_ankle", 0.12, -0.95, 0.00}, // EMG, right leg
  };
  std::vector<BodyPosition> out;
  out.reserve(node_count + 1);
  for (std::size_t i = 0; i <= node_count; ++i) out.push_back(kSites[i]);
  return out;
}

LinkModel::LinkModel(std::vector<BodyPosition> positions,
                     const LinkBudget& budget, std::uint64_t seed)
    : positions_{std::move(positions)}, budget_{budget},
      shadowing_db_(positions_.size() * positions_.size(), 0.0) {
  // Symmetric, per-link shadowing; draw once per unordered pair so the
  // link is reciprocal.
  const std::size_t n = positions_.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      sim::Rng rng = sim::Rng::stream(
          seed, "shadow/" + std::to_string(a) + "/" + std::to_string(b));
      const double s = rng.normal(0.0, budget_.shadowing_sigma_db);
      shadowing_db_[a * n + b] = s;
      shadowing_db_[b * n + a] = s;
    }
  }
}

double LinkModel::distance_m(std::size_t a, std::size_t b) const {
  const BodyPosition& pa = positions_[a];
  const BodyPosition& pb = positions_[b];
  const double dx = pa.x - pb.x;
  const double dy = pa.y - pb.y;
  const double dz = pa.z - pb.z;
  return std::max(budget_.reference_distance_m,
                  std::sqrt(dx * dx + dy * dy + dz * dz));
}

double LinkModel::path_loss_db(std::size_t a, std::size_t b) const {
  const double d = distance_m(a, b);
  const double pl = budget_.reference_loss_db +
                    10.0 * budget_.path_loss_exponent *
                        std::log10(d / budget_.reference_distance_m);
  return pl + shadowing_db_[a * positions_.size() + b];
}

double LinkModel::rx_power_dbm(std::size_t a, std::size_t b) const {
  return budget_.tx_power_dbm - path_loss_db(a, b);
}

double LinkModel::bit_error_rate(std::size_t a, std::size_t b,
                                 double extra_loss_db) const {
  const double snr_db =
      rx_power_dbm(a, b) - extra_loss_db - budget_.noise_floor_dbm;
  const double snr = std::pow(10.0, snr_db / 10.0);
  return std::min(0.5, 0.5 * std::exp(-snr / 2.0));
}

double LinkModel::frame_error_rate(std::size_t a, std::size_t b,
                                   std::size_t frame_bytes,
                                   double extra_loss_db) const {
  if (!connected(a, b, extra_loss_db)) return 1.0;
  const double ber = bit_error_rate(a, b, extra_loss_db);
  const double bits = static_cast<double>(frame_bytes) * 8.0 + 48.0;
  return 1.0 - std::pow(1.0 - ber, bits);
}

bool LinkModel::connected(std::size_t a, std::size_t b,
                          double extra_loss_db) const {
  return rx_power_dbm(a, b) - extra_loss_db >= budget_.sensitivity_dbm;
}

}  // namespace bansim::phy
