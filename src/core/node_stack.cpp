#include "core/node_stack.hpp"

#include <cassert>
#include <utility>

namespace bansim::core {

NodeStack::NodeStack(sim::SimContext& context, phy::Channel& channel,
                     const NodeStackInit& init, sim::Rng mac_rng,
                     sim::Rng signal_rng, os::ModelProbe& probe,
                     const os::CycleCostModel* nominal_costs)
    : address_{init.address},
      app_kind_{init.app},
      mac_kind_{init.mac},
      ecg_{init.ecg, signal_rng},
      eeg_{init.eeg_signal, init.eeg_seed},
      board_{context, channel, init.name, init.board, init.clock_skew},
      os_{context, board_, probe, nominal_costs} {
  if (init.storage.enabled) store_.emplace(init.storage);
  switch (mac_kind_) {
    case MacKind::kTdma:
      mac_ = std::make_unique<mac::NodeMac>(context, os_, init.tdma, address_,
                                            mac_rng);
      break;
    case MacKind::kAloha:
      mac_ = std::make_unique<mac::AlohaNodeMac>(context, os_, init.aloha,
                                                 address_, mac_rng);
      break;
    case MacKind::kCsmaCa:
      mac_ = std::make_unique<mac::CsmaNodeMac>(context, os_, init.csma,
                                                address_, mac_rng,
                                                init.csma_gts);
      break;
  }

  // The biopotential front-end feeds the ECG waveform into channels 0 and 1
  // (the "2-channel ECG" of Section 5.1); channel 1 sees the same cardiac
  // source through a second electrode pair, at reduced amplitude.
  board_.asic().set_channel_signal(
      0, [this](sim::TimePoint t) { return ecg_.sample(t); });
  board_.asic().set_channel_signal(1, [this](sim::TimePoint t) {
    const double baseline = ecg_.config().baseline_volts;
    return baseline + 0.8 * (ecg_.sample(t) - baseline);
  });

  // Applications run against the protocol-agnostic seam; any MAC that can
  // queue a payload can carry them (the historical ALOHA benches simply
  // pass AppKind::kNone).
  {
    switch (app_kind_) {
      case AppKind::kEcgStreaming:
        streaming_ = std::make_unique<apps::EcgStreamingApp>(
            context.simulator, os_, *mac_, init.streaming);
        break;
      case AppKind::kRpeak:
        rpeak_ = std::make_unique<apps::RpeakApp>(context.simulator, os_,
                                                  *mac_, init.rpeak);
        break;
      case AppKind::kEegMonitoring:
        eeg_app_ = std::make_unique<apps::EegApp>(context.simulator, os_,
                                                  *mac_, init.eeg, eeg_);
        break;
      case AppKind::kNone:
        break;
    }
  }
}

void NodeStack::start() {
  mac_->start();
  if (streaming_) streaming_->start();
  if (rpeak_) rpeak_->start();
  if (eeg_app_) eeg_app_->start();
}

mac::NodeMac& NodeStack::mac() {
  assert(mac_kind_ == MacKind::kTdma && "stack does not run the TDMA MAC");
  return static_cast<mac::NodeMac&>(*mac_);
}

const mac::NodeMac& NodeStack::mac() const {
  assert(mac_kind_ == MacKind::kTdma && "stack does not run the TDMA MAC");
  return static_cast<const mac::NodeMac&>(*mac_);
}

mac::AlohaNodeMac& NodeStack::aloha_mac() {
  assert(mac_kind_ == MacKind::kAloha && "stack does not run the ALOHA MAC");
  return static_cast<mac::AlohaNodeMac&>(*mac_);
}

mac::CsmaNodeMac& NodeStack::csma_mac() {
  assert(mac_kind_ == MacKind::kCsmaCa &&
         "stack does not run the CSMA/CA MAC");
  return static_cast<mac::CsmaNodeMac&>(*mac_);
}

energy::NodeEnergy NodeStack::energy(sim::TimePoint now) const {
  energy::NodeEnergy out;
  out.node = board_.name();
  out.components = board_.breakdown(now);
  return out;
}

BaseStationStack::BaseStationStack(sim::SimContext& context,
                                   phy::Channel& channel,
                                   const std::string& name,
                                   const hw::BoardParams& board,
                                   double clock_skew, MacKind mac,
                                   const mac::TdmaConfig& tdma,
                                   const mac::AlohaConfig& aloha,
                                   const mac::CsmaConfig& csma,
                                   os::ModelProbe& probe,
                                   const os::CycleCostModel* nominal_costs)
    : mac_kind_{mac},
      board_{context, channel, name, board, clock_skew},
      os_{context, board_, probe, nominal_costs} {
  switch (mac_kind_) {
    case MacKind::kTdma:
      mac_ = std::make_unique<mac::BaseStationMac>(context, os_, tdma);
      break;
    case MacKind::kAloha:
      mac_ = std::make_unique<mac::AlohaBaseStation>(context, os_, aloha);
      break;
    case MacKind::kCsmaCa:
      mac_ = std::make_unique<mac::CsmaBaseStationMac>(context, os_, csma);
      break;
  }
}

void BaseStationStack::start() { mac_->start(); }

mac::BaseStationMac& BaseStationStack::tdma_mac() {
  assert(mac_kind_ == MacKind::kTdma &&
         "base station does not run the TDMA MAC");
  return static_cast<mac::BaseStationMac&>(*mac_);
}

mac::AlohaBaseStation& BaseStationStack::aloha_mac() {
  assert(mac_kind_ == MacKind::kAloha &&
         "base station does not run the ALOHA MAC");
  return static_cast<mac::AlohaBaseStation&>(*mac_);
}

mac::CsmaBaseStationMac& BaseStationStack::csma_mac() {
  assert(mac_kind_ == MacKind::kCsmaCa &&
         "base station does not run the CSMA/CA MAC");
  return static_cast<mac::CsmaBaseStationMac&>(*mac_);
}

energy::NodeEnergy BaseStationStack::energy(sim::TimePoint now) const {
  energy::NodeEnergy out;
  out.node = board_.name();
  out.components = board_.breakdown(now);
  return out;
}

}  // namespace bansim::core
