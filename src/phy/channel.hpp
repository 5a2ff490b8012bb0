// Broadcast wireless medium.
//
// TOSSIM models a collision as a logical OR of the colliding bits and
// delivers every packet intact, making collisions undetectable; the paper
// extends this by corrupting overlapping frames so the receiving radio's
// hardware CRC discards them (Section 4.2).  This Channel implements that
// extension: any temporal overlap between transmissions reaching a common
// receiver corrupts both frames.
//
// Connectivity is a symmetric boolean link matrix (full mesh by default) so
// BAN topologies with out-of-range nodes can be expressed.  Propagation
// delay is configurable but negligible at body scale.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "phy/air_frame.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::phy {

/// Interface a radio implements to hear the medium.
class MediumListener {
 public:
  virtual ~MediumListener() = default;

  /// Energy appeared on the channel (frame began).  The radio decides based
  /// on its own state whether it can lock onto the frame.
  virtual void on_frame_start(const AirFrame& frame) = 0;

  /// The frame finished.  `corrupted` reflects collisions during flight;
  /// the CRC check against the byte image itself is the radio's job.
  virtual void on_frame_end(const AirFrame& frame, bool corrupted) = 0;
};

class Channel {
 public:
  explicit Channel(sim::SimContext& context);

  /// Registers a listener; the returned id names it in the link matrix and
  /// as AirFrame::tx_id.
  std::uint32_t attach(MediumListener& listener);

  /// Severs / restores the symmetric link between two attached radios.
  void set_link(std::uint32_t a, std::uint32_t b, bool connected);
  [[nodiscard]] bool link(std::uint32_t a, std::uint32_t b) const;

  /// One-way propagation delay applied to all links.
  void set_propagation_delay(sim::Duration d) { propagation_ = d; }

  /// Per-link frame error probability: (tx, rx, frame_bytes) -> [0, 1].
  /// When set, each receiver independently draws frame corruption on top
  /// of collision corruption (bit errors -> hardware CRC failure).
  using FrameErrorModel =
      std::function<double(std::uint32_t tx, std::uint32_t rx,
                           std::size_t frame_bytes)>;
  void set_error_model(FrameErrorModel model, sim::Rng rng) {
    error_model_ = std::move(model);
    rng_ = rng;
  }

  /// Frames corrupted by the bit-error model (per receiver).
  [[nodiscard]] std::uint64_t bit_error_drops() const { return bit_error_drops_; }

  /// Starts a transmission from radio `tx_id`.  The channel delivers
  /// frame-start to every connected listener after the propagation delay
  /// and frame-end when the air time elapses.  Overlapping transmissions
  /// that share any connected receiver corrupt each other.
  void transmit(std::uint32_t tx_id, std::vector<std::uint8_t> bytes,
                sim::Duration duration);

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

  /// Frames currently on the air (teardown conservation accounting).
  [[nodiscard]] std::size_t frames_in_flight() const { return in_flight_.size(); }

  /// Energy-detect carrier sense: true when any in-flight frame from a
  /// connected transmitter is audible at `rx_id`.  This is the CCA a
  /// 802.15.4-class radio performs; the nRF2401 cannot, so only MACs that
  /// model a CCA-capable front end query it.
  [[nodiscard]] bool busy_at(std::uint32_t rx_id) const;

 private:
  struct Active {
    AirFrame frame;
    bool* corrupted_flag;  ///< owned by the scheduled end-event closure
  };

  /// Marks every pair of overlapping in-flight frames corrupted.
  void detect_collisions();

  sim::SimContext& context_;
  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  std::vector<MediumListener*> listeners_;
  std::vector<std::vector<bool>> links_;
  std::vector<AirFrame> in_flight_;
  sim::Duration propagation_{sim::Duration::zero()};
  FrameErrorModel error_model_;
  sim::Rng rng_{0};
  std::uint64_t frames_sent_{0};
  std::uint64_t collisions_{0};
  std::uint64_t bit_error_drops_{0};
};

}  // namespace bansim::phy
