#include "apps/eeg_synthesizer.hpp"

#include <cmath>
#include <numbers>

namespace bansim::apps {

namespace {
double hash_noise(std::int64_t ticks, std::uint32_t channel) {
  auto x = static_cast<std::uint64_t>(ticks) * 0x9E3779B97F4A7C15ull +
           channel * 0xD1B54A32D192ED03ull;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 32;
  return (static_cast<double>(x >> 11) * 0x1.0p-53) * 2.0 - 1.0;
}
}  // namespace

EegSynthesizer::EegSynthesizer(const EegConfig& config, std::uint64_t seed)
    : config_{config}, per_channel_(config.channels) {
  // Band centres and relative weights for a resting-state montage.
  struct Band {
    double lo, hi, weight;
  };
  constexpr Band kBands[] = {
      {8.0, 13.0, 1.0},   // alpha dominates at rest
      {13.0, 30.0, 0.4},  // beta
      {4.0, 8.0, 0.5},    // theta
      {0.5, 4.0, 0.6},    // delta / slow drift
  };
  for (std::uint32_t ch = 0; ch < config.channels; ++ch) {
    sim::Rng rng = sim::Rng::stream(seed, "eeg/ch" + std::to_string(ch));
    for (const Band& band : kBands) {
      // Two components per band for a fuller spectrum.
      for (int k = 0; k < 2; ++k) {
        Component c;
        c.hz = rng.uniform(band.lo, band.hi);
        c.amplitude = band.weight * rng.uniform(0.3, 1.0) / 4.0;
        c.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
        per_channel_[ch].push_back(c);
      }
    }
  }
}

double EegSynthesizer::sample(std::uint32_t channel, sim::TimePoint t) const {
  if (channel >= per_channel_.size()) return config_.baseline_volts;
  const double seconds = t.to_seconds();
  double v = 0.0;
  for (const Component& c : per_channel_[channel]) {
    v += c.amplitude *
         std::sin(2.0 * std::numbers::pi * c.hz * seconds + c.phase);
  }
  return config_.baseline_volts + config_.amplitude_volts * v +
         config_.noise_volts * hash_noise(t.ticks(), channel);
}

}  // namespace bansim::apps
