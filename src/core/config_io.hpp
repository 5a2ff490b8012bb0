// Experiment-configuration serialization (INI-style).
//
// Lets scenarios live in version-controlled text files instead of C++
// (README "Scenario config files" lists every section and key):
//
//   [network]
//   nodes = 5
//   app = ecg_streaming        ; none | ecg_streaming | rpeak | eeg_monitoring
//
//   [tdma]
//   variant = static           ; static | dynamic
//   cycle_ms = 30              ; static: full cycle (slot derived)
//
//   ; Optional per-node overrides (1-based index).  Any [node.K] section
//   ; switches the network to roster mode: node K starts from the global
//   ; defaults above and overrides only the keys it lists.
//   [node.2]
//   app = rpeak
//   rpeak.sample_rate_hz = 250
//
// Every key is one row of a static field table in config_io.cpp: section,
// key, the member it reaches, a codec picked by the member's type, and an
// optional emit-when predicate.  parse_config and serialize_config are two
// loops over that table, so a new knob is one new row.  serialize -> parse
// is exact (doubles are written with as many digits as they need) and the
// text is a fixpoint of parse + serialize.  Unknown keys, unknown enum
// tokens and integers the field cannot hold are hard errors naming the
// line and the offending key or token, so typos never become defaults.
#pragma once

#include <stdexcept>
#include <string>

#include "core/ban_network.hpp"

namespace bansim::core {

class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& message)
      : std::runtime_error(message) {}
};

// Enum parsing, shared by the file parser and the CLI so every entry
// point rejects unknown tokens the same way.  Each throws ConfigError
// naming the offending token and the accepted values.
[[nodiscard]] AppKind parse_app_kind(const std::string& token);
[[nodiscard]] mac::Protocol parse_mac_protocol(const std::string& token);
[[nodiscard]] mac::TdmaVariant parse_tdma_variant(const std::string& token);
[[nodiscard]] Fidelity parse_fidelity(const std::string& token);
[[nodiscard]] fault::FaultKind parse_fault_kind(const std::string& token);
[[nodiscard]] hw::StorageKind parse_storage_kind(const std::string& token);
[[nodiscard]] hw::HarvestParams::Profile parse_harvest_profile(
    const std::string& token);

/// Routes a parsed protocol into BanConfig (the TDMA variants fold into
/// MacKind::kTdma + TdmaConfig::variant) — shared by the file parser, the
/// bansim_cli --protocol override, and the campaign orchestrator's
/// protocol-sweep variants so a protocol override means the same thing at
/// every entry point.
void apply_mac_protocol(BanConfig& config, mac::Protocol protocol);

/// Parses INI text into a BanConfig (starting from defaults).  [node.K]
/// sections fill config.roster; global keys may appear before or after
/// them (the roster is resolved once the whole file is read).
[[nodiscard]] BanConfig parse_config(const std::string& text);

/// Serializes the fields parse_config understands, including the roster.
[[nodiscard]] std::string serialize_config(const BanConfig& config);

}  // namespace bansim::core
