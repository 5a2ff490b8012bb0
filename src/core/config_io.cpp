#include "core/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bansim::core {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

double to_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw ConfigError("");
    return v;
  } catch (...) {
    throw ConfigError("bad numeric value for " + key + ": " + value);
  }
}

/// Range-checked integer of the field's own (unsigned) type: a value the
/// field cannot hold is an error naming the key, never a wrap-around.
template <class V>
V to_integer(const std::string& key, const std::string& value) {
  static_assert(std::is_unsigned_v<V>);
  constexpr auto kMax = std::numeric_limits<V>::max();
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  // strtoull would wrap "-3" around; an unsigned field refuses it.
  if (value.empty() || value.front() == '-' || errno != 0 ||
      end != value.c_str() + value.size() || v > kMax) {
    throw ConfigError("bad integer value for " + key + ": " + value +
                      " (expected 0.." + std::to_string(kMax) + ")");
  }
  return static_cast<V>(v);
}

bool to_bool(const std::string& key, const std::string& value) {
  const std::string v = lower(value);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("bad boolean value for " + key + ": " + value);
}

/// `%g` at the smallest precision >= 6 that reads back as the same double:
/// the stream default wherever that is already exact, exact everywhere.
std::string format_double(double v) {
  char buffer[32];
  for (int precision = 6;; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, v);
    if (precision >= 17 || std::strtod(buffer, nullptr) == v) return buffer;
  }
}

/// One parser per enum: the tokens are the enumerators' own `to_string`.
template <class E, std::size_t N>
E parse_enum(const std::string& token, const char* what, const E (&all)[N]) {
  const std::string v = lower(trim(token));
  std::string expected;
  for (const E e : all) {
    if (v == to_string(e)) return e;
    expected += (expected.empty() ? "" : " | ") + std::string{to_string(e)};
  }
  throw ConfigError("unknown " + std::string{what} + " '" + token +
                    "' (expected " + expected + ")");
}

}  // namespace

AppKind parse_app_kind(const std::string& token) {
  using enum AppKind;
  return parse_enum(token, "app kind",
                    {kNone, kEcgStreaming, kRpeak, kEegMonitoring});
}

mac::Protocol parse_mac_protocol(const std::string& token) {
  using enum mac::Protocol;
  return parse_enum(token, "mac protocol",
                    {kStaticTdma, kDynamicTdma, kAloha, kCsmaCa});
}

mac::TdmaVariant parse_tdma_variant(const std::string& token) {
  using enum mac::TdmaVariant;
  return parse_enum(token, "tdma variant", {kStatic, kDynamic});
}

Fidelity parse_fidelity(const std::string& token) {
  using enum Fidelity;
  return parse_enum(token, "fidelity", {kReference, kModel});
}

fault::FaultKind parse_fault_kind(const std::string& token) {
  using enum fault::FaultKind;
  return parse_enum(token, "fault kind", {kCrash, kRadioLockup, kSkewStep});
}

hw::StorageKind parse_storage_kind(const std::string& token) {
  using enum hw::StorageKind;
  return parse_enum(token, "storage kind", {kBattery, kCapacitor});
}

hw::HarvestParams::Profile parse_harvest_profile(const std::string& token) {
  using enum hw::HarvestParams::Profile;
  return parse_enum(token, "harvest profile", {kConstant, kSine, kSquare});
}

void apply_mac_protocol(BanConfig& config, mac::Protocol protocol) {
  switch (protocol) {
    case mac::Protocol::kStaticTdma:
      config.mac = MacKind::kTdma;
      config.tdma.variant = mac::TdmaVariant::kStatic;
      break;
    case mac::Protocol::kDynamicTdma:
      config.mac = MacKind::kTdma;
      config.tdma.variant = mac::TdmaVariant::kDynamic;
      break;
    case mac::Protocol::kAloha:
      config.mac = MacKind::kAloha;
      break;
    case mac::Protocol::kCsmaCa:
      config.mac = MacKind::kCsmaCa;
      break;
  }
}

namespace {

/// Enum fields decode through the public parsers above.
void decode(const std::string& s, AppKind& v) { v = parse_app_kind(s); }
void decode(const std::string& s, Fidelity& v) { v = parse_fidelity(s); }
void decode(const std::string& s, fault::FaultKind& v) {
  v = parse_fault_kind(s);
}
void decode(const std::string& s, mac::TdmaVariant& v) {
  v = parse_tdma_variant(s);
}
void decode(const std::string& s, hw::StorageKind& v) {
  v = parse_storage_kind(s);
}
void decode(const std::string& s, hw::HarvestParams::Profile& v) {
  v = parse_harvest_profile(s);
}

/// Token <-> value for one field type; the type picks the codec.  Durations
/// and time points are carried in milliseconds, or µs where `kMicros`.
template <class V, bool kMicros = false>
struct Codec {
  static V parse(const std::string& key, const std::string& token) {
    if constexpr (std::is_same_v<V, bool>) {
      return to_bool(key, token);
    } else if constexpr (std::is_enum_v<V>) {
      V v{};
      decode(token, v);
      return v;
    } else if constexpr (std::is_integral_v<V>) {
      return to_integer<V>(key, token);
    } else if constexpr (std::is_floating_point_v<V>) {
      return to_double(key, token);
    } else if constexpr (std::is_same_v<V, sim::Duration>) {
      return kMicros ? sim::Duration::from_microseconds(to_double(key, token))
                     : sim::Duration::from_milliseconds(to_double(key, token));
    } else {
      static_assert(std::is_same_v<V, sim::TimePoint>);
      return sim::TimePoint::zero() + Codec<sim::Duration>::parse(key, token);
    }
  }
  static std::string format(const V& v) {
    if constexpr (std::is_same_v<V, bool>) {
      return v ? "true" : "false";
    } else if constexpr (std::is_enum_v<V>) {
      return to_string(v);
    } else if constexpr (std::is_integral_v<V>) {
      return std::to_string(v);
    } else if constexpr (std::is_floating_point_v<V>) {
      return format_double(v);
    } else if constexpr (std::is_same_v<V, sim::Duration>) {
      return format_double(kMicros ? v.to_microseconds() : v.to_milliseconds());
    } else {
      return Codec<sim::Duration>::format(v.since_epoch());
    }
  }
};

template <class V>
struct Codec<std::optional<V>> {
  static V parse(const std::string& key, const std::string& token) {
    return Codec<V>::parse(key, token);
  }
  static std::string format(const std::optional<V>& v) {
    return Codec<V>::format(*v);
  }
};

/// What a field parser sees besides its token: the key's scoped name for
/// messages, and the whole-file state the special keys feed.
struct Ctx {
  std::string name;  ///< "tdma.max_slots", "node.2.address", ...
  const BanConfig* cell{nullptr};
  bool nodes_set{false};
  std::optional<sim::Duration> static_cycle;
};

template <class T>
using Gate = bool (*)(const T&);

/// One INI key bound to one field of a `T`.
template <class T>
struct Field {
  const char* key;
  void (*parse)(T&, const std::string& token, Ctx&);
  std::string (*format)(const T&);  ///< nullptr: read, never written
  Gate<T> when{nullptr};            ///< written only if it holds
  bool per_node{false};  ///< also a `[node.K] <section>.<key>` override
};

/// The struct a member pointer points into.
template <class C, class V>
C owner_of(V C::*);
template <auto Member>
using OwnerOf = decltype(owner_of(Member));

/// A member path from a `Root` (empty: the root itself).
template <class Root, auto... Members>
struct Path {
  static auto& get(Root& r) { return (r .* ... .* Members); }
  static const auto& get(const Root& r) { return (r .* ... .* Members); }
  using Value = std::remove_cvref_t<decltype(get(std::declval<Root&>()))>;
};

template <class C, auto First, auto... Rest>
Field<OwnerOf<First>> bind(const char* key, Gate<OwnerOf<First>> when) {
  using T = OwnerOf<First>;
  using P = Path<T, First, Rest...>;
  if constexpr (requires(const T& t) { P::get(t).has_value(); }) {
    if (!when) when = [](const T& t) { return P::get(t).has_value(); };
  }
  return {key,
          [](T& t, const std::string& token, Ctx& ctx) {
            P::get(t) = C::parse(ctx.name, token);
          },
          [](const T& t) { return C::format(P::get(t)); }, when};
}

/// The field at member path `First, Rest...`, coded by its type.  An
/// optional field is written only when set.
template <auto First, auto... Rest>
auto field(const char* key, Gate<OwnerOf<First>> when = nullptr) {
  using V = typename Path<OwnerOf<First>, First, Rest...>::Value;
  return bind<Codec<V>, First, Rest...>(key, when);
}

/// A duration field carried in microseconds.
template <auto First, auto... Rest>
auto micros(const char* key) {
  return bind<Codec<sim::Duration, true>, First, Rest...>(key, nullptr);
}

template <class T>
Field<T> per_node(Field<T> f) {
  f.per_node = true;
  return f;
}

template <class T>
using Fields = std::vector<Field<T>>;

template <class T>
const Field<T>* find(const Fields<T>& fields, std::string_view key) {
  for (const Field<T>& f : fields) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

template <class T>
bool parse_field(const Fields<T>& fields, T& target, std::string_view key,
                 const std::string& token, Ctx& ctx) {
  const Field<T>* f = find(fields, key);
  if (f == nullptr) return false;
  f->parse(target, token, ctx);
  return true;
}

void header(std::string& out, const std::string& name) {
  if (!out.empty()) out += '\n';
  out += '[' + name + "]\n";
}

/// Writes `key = value` lines; `prefix` scopes node overrides, which carry
/// only their per-node fields.
template <class T>
void emit_fields(std::string& out, const Fields<T>& fields, const T& target,
                 const std::string& prefix = {}) {
  for (const Field<T>& f : fields) {
    if (f.format == nullptr || (!prefix.empty() && !f.per_node)) continue;
    if (f.when != nullptr && !f.when(target)) continue;
    if (!prefix.empty()) out += prefix + '.';
    out += std::string{f.key} + " = " + f.format(target) + '\n';
  }
}

/// One `[name]` section of the cell config.
struct Section {
  explicit Section(const char* section) : name{section} {}
  virtual ~Section() = default;
  /// Parses `key = token` into the cell; false for a key it does not own.
  virtual bool parse(BanConfig&, std::string_view /*key*/,
                     const std::string& /*token*/, Ctx&) const {
    return false;
  }
  /// Same for a `[node.K] <name>.<key>` override of `spec`.
  virtual bool parse_node(NodeSpec&, std::string_view /*key*/,
                          const std::string& /*token*/, Ctx&) const {
    return false;
  }
  virtual void emit(std::string& out, const BanConfig&) const = 0;
  virtual void emit_node(std::string& /*out*/, const NodeSpec&) const {}

  const std::string name;
};

/// A section configuring the struct at member path `Members` of BanConfig.
/// With `node` set, its per-node fields may be overridden in [node.K] on
/// the node's own copy of that struct, materialized from the cell's.
template <auto... Members>
class Bound final : public Section {
  using P = Path<BanConfig, Members...>;
  using S = typename P::Value;

 public:
  Bound(const char* section, Gate<BanConfig> present, Fields<S> fields,
        std::optional<S> NodeSpec::*node = nullptr)
      : Section{section}, present_{present}, fields_{std::move(fields)},
        node_{node} {}

  bool parse(BanConfig& config, std::string_view key,
             const std::string& token, Ctx& ctx) const override {
    return parse_field(fields_, P::get(config), key, token, ctx);
  }
  bool parse_node(NodeSpec& spec, std::string_view key,
                  const std::string& token, Ctx& ctx) const override {
    const Field<S>* f = find(fields_, key);
    if (node_ == nullptr || f == nullptr || !f->per_node) return false;
    std::optional<S>& own = spec.*node_;
    if (!own) own = P::get(*ctx.cell);
    f->parse(*own, token, ctx);
    return true;
  }
  void emit(std::string& out, const BanConfig& config) const override {
    if (present_ != nullptr && !present_(config)) return;
    header(out, name);
    emit_fields(out, fields_, P::get(config));
  }
  void emit_node(std::string& out, const NodeSpec& spec) const override {
    if (node_ != nullptr && spec.*node_) {
      emit_fields(out, fields_, *(spec.*node_), name);
    }
  }

 private:
  Gate<BanConfig> present_;
  Fields<S> fields_;
  std::optional<S> NodeSpec::*node_;
};

/// `[name.K]` sections, one per element of the list at `Members`.
template <auto... Members>
class Indexed final : public Section {
  using P = Path<BanConfig, Members...>;
  using Item = typename P::Value::value_type;

 public:
  Indexed(const char* section, Gate<BanConfig> present, Fields<Item> items)
      : Section{section}, present_{present}, fields{std::move(items)} {}

  void emit(std::string& out, const BanConfig& config) const override {
    if (!present_(config)) return;
    const auto& items = P::get(config);
    for (std::size_t i = 0; i < items.size(); ++i) {
      header(out, name + '.' + std::to_string(i + 1));
      emit_fields(out, fields, items[i]);
    }
  }

  const Gate<BanConfig> present_;
  const Fields<Item> fields;  ///< parse_config fills the items itself
};

bool fault_on(const BanConfig& c) { return c.fault_plan.enabled; }
/// A [fault.<part>] section is written when the plan and the part are on.
template <auto Part>
bool fault_part_on(const BanConfig& c) {
  return fault_on(c) && (c.fault_plan.*Part).enabled;
}
bool storage_on(const BanConfig& c) { return c.storage.enabled; }
bool harvests(const hw::StorageParams& s) { return s.harvest.enabled; }
bool harvest_on(const BanConfig& c) {
  return storage_on(c) && harvests(c.storage);
}
/// Battery (true) or capacitor (false) store.
template <bool kBattery>
bool is_battery(const hw::StorageParams& s) {
  return (s.kind == hw::StorageKind::kBattery) == kBattery;
}
/// The cell carries a store of that kind.
template <bool kBattery>
bool storage_of(const BanConfig& c) {
  return storage_on(c) && is_battery<kBattery>(c.storage);
}

/// Every INI key, in file order.  Built once; parse_config and
/// serialize_config are loops over it.
struct Table {
  using Tdma = mac::TdmaConfig;
  using Aloha = mac::AlohaConfig;
  using Csma = mac::CsmaConfig;
  using Plan = fault::FaultPlan;
  using Fade = fault::FadeParams;
  using Interferer = fault::InterfererParams;
  using Crashes = fault::CrashProcess;
  using Brownout = fault::BrownoutParams;
  using Episode = fault::ShadowEpisode;
  using Event = fault::FaultEvent;
  using Store = hw::StorageParams;
  using Battery = hw::BatteryParams;
  using Capacitor = hw::CapacitorParams;
  using Harvest = hw::HarvestParams;
  using Budget = phy::LinkBudget;
  using Ms = Codec<sim::Duration>;

  Bound<> network{"network", nullptr, {
      {"nodes",
       [](BanConfig& c, const std::string& token, Ctx& ctx) {
         c.num_nodes = Codec<std::size_t>::parse(ctx.name, token);
         ctx.nodes_set = true;
       },
       [](const BanConfig& c) { return std::to_string(c.effective_nodes()); }},
      field<&BanConfig::seed>("seed"),
      field<&BanConfig::stagger>("stagger_ms"),
      field<&BanConfig::app>("app"),
      field<&BanConfig::address_offset>(
          "address_offset",
          [](const BanConfig& c) { return c.address_offset != 0; })}};

  // [mac] only for non-default protocols: TDMA configs serialize exactly
  // as they did before the protocol seam.
  Bound<> protocol{
      "mac", [](const BanConfig& c) { return c.mac != MacKind::kTdma; }, {
      {"protocol",
       [](BanConfig& c, const std::string& token, Ctx&) {
         apply_mac_protocol(c, parse_mac_protocol(token));
       },
       [](const BanConfig& c) {
         return std::string{to_string(c.protocol())};
       }}}};

  Bound<&BanConfig::tdma> tdma{"tdma", nullptr, {
      field<&Tdma::variant>("variant"),
      field<&Tdma::pan_id>("pan_id",
                           [](const Tdma& t) { return t.pan_id != 0; }),
      // The static cycle derives the slot once max_slots is known.
      {"cycle_ms",
       [](Tdma&, const std::string& token, Ctx& ctx) {
         ctx.static_cycle = Ms::parse(ctx.name, token);
       },
       [](const Tdma& t) { return Ms::format(t.static_cycle()); },
       [](const Tdma& t) { return t.variant == mac::TdmaVariant::kStatic; }},
      field<&Tdma::slot>("slot_ms"),
      field<&Tdma::max_slots>("max_slots"),
      field<&Tdma::guard_fixed>("guard_fixed_ms"),
      field<&Tdma::guard_fraction>("guard_fraction"),
      field<&Tdma::fast_grant>("fast_grant"),
      field<&Tdma::ack_data>("ack_data"),
      field<&Tdma::max_retries>("max_retries"),
      field<&Tdma::radio_power_down>("radio_power_down"),
      field<&Tdma::reclaim_after_cycles>("reclaim_after_cycles"),
      field<&Tdma::missed_beacon_limit>("missed_beacon_limit"),
      field<&Tdma::tx_queue_cap>("tx_queue_cap"),
      field<&Tdma::search_listen>("search_listen_ms"),
      field<&Tdma::search_backoff_base>("search_backoff_base_ms"),
      field<&Tdma::search_backoff_factor>("search_backoff_factor"),
      field<&Tdma::search_backoff_max>("search_backoff_max_ms")}};

  Bound<&BanConfig::aloha> aloha{
      "aloha", [](const BanConfig& c) { return c.mac == MacKind::kAloha; }, {
      field<&Aloha::initial_dither>("initial_dither_ms"),
      field<&Aloha::ack_data>("ack_data"),
      field<&Aloha::ack_wait>("ack_wait_ms"),
      field<&Aloha::max_retries>("max_retries"),
      field<&Aloha::backoff_base>("backoff_base_ms")}};

  Bound<&BanConfig::csma> csma{
      "csma", [](const BanConfig& c) { return c.mac == MacKind::kCsmaCa; }, {
      field<&Csma::pan_id>("pan_id"),
      field<&Csma::cycle>("cycle_ms"),
      micros<&Csma::backoff_unit>("backoff_unit_us"),
      field<&Csma::min_be>("min_be"),
      field<&Csma::max_be>("max_be"),
      field<&Csma::max_backoffs>("max_backoffs"),
      micros<&Csma::cca>("cca_us"),
      field<&Csma::ack_data>("ack_data"),
      field<&Csma::ack_wait>("ack_wait_ms"),
      field<&Csma::max_retries>("max_retries"),
      field<&Csma::gts_slots>("gts_slots"),
      field<&Csma::gts_slot>("gts_slot_ms"),
      field<&Csma::guard_fixed>("guard_fixed_ms"),
      field<&Csma::guard_fraction>("guard_fraction"),
      field<&Csma::missed_beacon_limit>("missed_beacon_limit"),
      micros<&Csma::beacon_timeout_margin>("beacon_timeout_margin_us"),
      field<&Csma::tx_queue_cap>("tx_queue_cap")}};

  Bound<&BanConfig::streaming> streaming{"streaming", nullptr, {
      per_node(field<&apps::StreamingConfig::sample_rate_hz>("sample_rate_hz")),
      per_node(field<&apps::StreamingConfig::payload_bytes>("payload_bytes"))},
      &NodeSpec::streaming};

  Bound<&BanConfig::rpeak> rpeak{"rpeak", nullptr, {
      per_node(field<&apps::RpeakConfig::sample_rate_hz>("sample_rate_hz"))},
      &NodeSpec::rpeak};

  Bound<&BanConfig::ecg> ecg{"ecg", nullptr, {
      per_node(field<&apps::EcgConfig::heart_rate_bpm>("heart_rate_bpm"))},
      &NodeSpec::ecg};

  Bound<> eeg{"eeg", nullptr, {
      // The synthesizer must produce as many channels as the app frames.
      {"channels",
       [](BanConfig& c, const std::string& token, Ctx& ctx) {
         c.eeg.channels = Codec<std::uint32_t>::parse(ctx.name, token);
         c.eeg_signal.channels = c.eeg.channels;
       },
       [](const BanConfig& c) { return std::to_string(c.eeg.channels); }},
      field<&BanConfig::eeg, &apps::EegAppConfig::sample_rate_hz>(
          "sample_rate_hz"),
      field<&BanConfig::eeg, &apps::EegAppConfig::block_samples>(
          "block_samples")}};

  Bound<> link{"link", nullptr, {
      field<&BanConfig::use_link_model>("enabled"),
      field<&BanConfig::link_budget, &Budget::tx_power_dbm>("tx_power_dbm"),
      field<&BanConfig::link_budget, &Budget::path_loss_exponent>(
          "path_loss_exponent"),
      field<&BanConfig::link_budget, &Budget::shadowing_sigma_db>(
          "shadowing_sigma_db")}};

  // Fault sections only when a plan is carried: fault-free configs
  // serialize exactly as they did before the fault subsystem existed.
  Bound<&BanConfig::fault_plan> faults{
      "fault", fault_on, {field<&Plan::enabled>("enabled")}};

  Bound<&BanConfig::fault_plan, &Plan::fade> fade{
      "fault.fade", fault_part_on<&Plan::fade>, {
      field<&Fade::enabled>("enabled"),
      field<&Fade::p_enter>("p_enter"),
      field<&Fade::p_exit>("p_exit"),
      field<&Fade::step>("step_ms"),
      field<&Fade::extra_loss_db>("extra_loss_db"),
      field<&Fade::fer>("fer")}};

  Bound<&BanConfig::fault_plan, &Plan::interferer> interferer{
      "fault.interferer", fault_part_on<&Plan::interferer>, {
      field<&Interferer::enabled>("enabled"),
      field<&Interferer::period>("period_ms"),
      field<&Interferer::burst>("burst_ms"),
      field<&Interferer::fer>("fer")}};

  Bound<&BanConfig::fault_plan, &Plan::crashes> crashes{
      "fault.crashes", fault_part_on<&Plan::crashes>, {
      field<&Crashes::enabled>("enabled"),
      field<&Crashes::rate_hz>("rate_hz"),
      field<&Crashes::check>("check_ms"),
      field<&Crashes::min_down>("min_down_ms"),
      field<&Crashes::max_down>("max_down_ms")}};

  Bound<&BanConfig::fault_plan, &Plan::brownout> brownout{
      "fault.brownout", fault_part_on<&Plan::brownout>, {
      field<&Brownout::enabled>("enabled"),
      field<&Brownout::capacity_mah>("capacity_mah"),
      field<&Brownout::esr_ohms>("esr_ohms"),
      field<&Brownout::brownout_volts>("brownout_volts"),
      field<&Brownout::check>("check_ms"),
      field<&Brownout::recovery>("recovery_ms")}};

  Indexed<&BanConfig::fault_plan, &Plan::episodes> episode{
      "fault.episode", fault_on, {
      field<&Episode::node>("node"),
      field<&Episode::start>("start_ms"),
      field<&Episode::duration>("duration_ms"),
      field<&Episode::extra_loss_db>("extra_loss_db"),
      field<&Episode::fer>("fer")}};

  Indexed<&BanConfig::fault_plan, &Plan::events> event{
      "fault.event", fault_on, {
      field<&Event::kind>("kind"),
      field<&Event::node>("node"),
      field<&Event::at>("at_ms"),
      field<&Event::down>("down_ms", [](const Event& e) {
        return e.kind == fault::FaultKind::kCrash;
      }),
      field<&Event::skew_delta>("skew_delta", [](const Event& e) {
        return e.kind == fault::FaultKind::kSkewStep;
      })}};

  // Storage sections only when a store is carried, for the same reason.
  // A node override always restates `harvest.enabled`, so a node without
  // harvest does not inherit the cell's on re-parse.
  Bound<&BanConfig::storage> storage{"storage", storage_on, {
      per_node(field<&Store::enabled>("enabled")),
      per_node(field<&Store::kind>("kind")),
      field<&Store::check>("check_ms")},
      &NodeSpec::storage};

  Bound<&BanConfig::storage> battery{"battery", storage_of<true>, {
      per_node(field<&Store::battery, &Battery::capacity_mah>(
          "capacity_mah", is_battery<true>)),
      field<&Store::battery, &Battery::nominal_volts>("nominal_volts"),
      field<&Store::battery, &Battery::full_volts>("full_volts"),
      field<&Store::battery, &Battery::empty_volts>("empty_volts"),
      field<&Store::battery, &Battery::dead_volts>("dead_volts"),
      field<&Store::battery, &Battery::rated_c>("rated_c"),
      field<&Store::battery, &Battery::peukert_exponent>("peukert_exponent")},
      &NodeSpec::storage};

  Bound<&BanConfig::storage> capacitor{"capacitor", storage_of<false>, {
      per_node(field<&Store::capacitor, &Capacitor::capacitance_farads>(
          "capacitance_f", is_battery<false>)),
      field<&Store::capacitor, &Capacitor::full_volts>("full_volts"),
      field<&Store::capacitor, &Capacitor::turnoff_volts>("turnoff_volts"),
      field<&Store::capacitor, &Capacitor::turnon_volts>("turnon_volts")},
      &NodeSpec::storage};

  Bound<&BanConfig::storage> harvest{"harvest", harvest_on, {
      per_node(field<&Store::harvest, &Harvest::enabled>("enabled")),
      field<&Store::harvest, &Harvest::profile>("profile"),
      per_node(field<&Store::harvest, &Harvest::watts>("watts", harvests)),
      field<&Store::harvest, &Harvest::floor_watts>("floor_watts"),
      field<&Store::harvest, &Harvest::period>("period_ms"),
      field<&Store::harvest, &Harvest::duty>("duty"),
      field<&Store::harvest, &Harvest::phase>("phase_ms")},
      &NodeSpec::storage};

  const std::vector<const Section*> sections{
      &network, &protocol, &tdma,  &aloha,    &csma,       &streaming,
      &rpeak,   &ecg,      &eeg,   &link,     &faults,     &fade,
      &interferer, &crashes, &brownout, &episode, &event,  &storage,
      &battery, &capacitor, &harvest};

  /// `[node.K]` keys of the NodeSpec itself; `<section>.<key>` overrides
  /// go to the per-node fields of the sections above.
  const Fields<NodeSpec> node{
      field<&NodeSpec::app>("app"),
      field<&NodeSpec::address>(
          "address", [](const NodeSpec& n) { return n.address != 0; }),
      field<&NodeSpec::clock_skew>("clock_skew"),
      field<&NodeSpec::boot_offset>("boot_ms"),
      field<&NodeSpec::fidelity>("fidelity"),
      // The MAC protocol is cell-wide; a [node.K] entry may only restate
      // it (mixed-protocol cells would need per-node radios the channel
      // model does not arbitrate).
      {"protocol",
       [](NodeSpec&, const std::string& token, Ctx& ctx) {
         const mac::Protocol cell = ctx.cell->protocol();
         if (parse_mac_protocol(token) == cell) return;
         throw ConfigError(
             "'" + ctx.name + "' conflicts with the cell protocol '" +
             mac::to_string(cell) +
             "' (the protocol is cell-wide; set it once under [mac])");
       },
       nullptr},
      field<&NodeSpec::csma_gts>("csma_gts")};

  [[nodiscard]] const Section* find(std::string_view name) const {
    for (const Section* s : sections) {
      if (s->name == name) return s;
    }
    return nullptr;
  }
};

const Table& table() {
  static const Table t;
  return t;
}

/// Runs `fn`, prefixing any ConfigError it raises with the file line.
template <class Fn>
auto at_line(int line_no, Fn&& fn) {
  try {
    return fn();
  } catch (const ConfigError& e) {
    throw ConfigError("line " + std::to_string(line_no) + ": " + e.what());
  }
}

/// The 1-based K of a `[prefix.K]` header; nullopt for another section.
std::optional<std::size_t> section_index(const std::string& section,
                                         const std::string& prefix,
                                         int line_no) {
  if (section.rfind(prefix, 0) != 0) return std::nullopt;
  std::size_t index = 0;
  try {
    index = to_integer<std::size_t>(section, section.substr(prefix.size()));
  } catch (const ConfigError&) {
    throw ConfigError("line " + std::to_string(line_no) +
                      ": bad section index in [" + section + "]");
  }
  if (index == 0) {
    throw ConfigError("line " + std::to_string(line_no) + ": [" + section +
                      "] sections are 1-based");
  }
  return index;
}

/// One buffered `[node.K]` assignment; applied after the whole file is
/// read so per-node overrides see the final global defaults.
struct NodeAssignment {
  std::size_t index;  ///< 1-based
  std::string key;
  std::string value;
  int line_no;
};

}  // namespace

BanConfig parse_config(const std::string& text) {
  const Table& t = table();
  BanConfig config;
  Ctx ctx;
  ctx.cell = &config;
  std::vector<NodeAssignment> node_assignments;
  std::size_t max_node_index = 0;
  // Indexed fault sections, keyed so [fault.episode.2] may precede
  // [fault.episode.1] in the file; flattened in index order afterwards.
  std::map<std::size_t, fault::ShadowEpisode> fault_episodes;
  std::map<std::size_t, fault::FaultEvent> fault_events;

  std::istringstream stream{text};
  std::string line;
  std::string section;
  // Where the current section's keys go: one of these at most.
  const Section* global = nullptr;
  std::size_t current_node = 0;  ///< 1-based index when inside [node.K]
  fault::ShadowEpisode* episode = nullptr;
  fault::FaultEvent* event = nullptr;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto comment = line.find_first_of(";#");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError("line " + std::to_string(line_no) +
                          ": malformed section header");
      }
      section = lower(trim(line.substr(1, line.size() - 2)));
      global = nullptr;
      current_node = 0;
      episode = nullptr;
      event = nullptr;
      if (const auto k = section_index(section, "node.", line_no)) {
        current_node = *k;
        max_node_index = std::max(max_node_index, current_node);
      } else if (const auto e = section_index(section, "fault.episode.",
                                              line_no)) {
        episode = &fault_episodes[*e];
      } else if (const auto v = section_index(section, "fault.event.",
                                              line_no)) {
        event = &fault_events[*v];
      } else {
        global = t.find(section);
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("line " + std::to_string(line_no) +
                        ": expected key = value");
    }
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));

    if (current_node > 0) {
      node_assignments.push_back({current_node, key, value, line_no});
      continue;
    }
    ctx.name = section + "." + key;
    const bool known = at_line(line_no, [&] {
      if (episode != nullptr) {
        return parse_field(t.episode.fields, *episode, key, value, ctx);
      }
      if (event != nullptr) {
        return parse_field(t.event.fields, *event, key, value, ctx);
      }
      return global != nullptr && global->parse(config, key, value, ctx);
    });
    if (!known) {
      throw ConfigError("line " + std::to_string(line_no) + ": unknown key '" +
                        ctx.name + "'");
    }
  }

  if (ctx.static_cycle && config.tdma.variant == mac::TdmaVariant::kStatic) {
    config.tdma.set_static_cycle(*ctx.static_cycle);
  }

  // Resolve the roster last so [node.K] overrides see the final globals no
  // matter where the sections appear in the file.
  if (max_node_index > 0) {
    if (ctx.nodes_set && max_node_index > config.num_nodes) {
      throw ConfigError("[node." + std::to_string(max_node_index) +
                        "] exceeds network.nodes = " +
                        std::to_string(config.num_nodes));
    }
    config.roster.assign(ctx.nodes_set ? config.num_nodes : max_node_index,
                         NodeSpec{});
    for (const NodeAssignment& a : node_assignments) {
      // `key` is the NodeSpec's own; `section.key` overrides a section's.
      NodeSpec& spec = config.roster[a.index - 1];
      const std::string_view key{a.key};
      const auto dot = key.find('.');
      const Section* s = dot == key.npos ? nullptr : t.find(key.substr(0, dot));
      ctx.name = "node." + std::to_string(a.index) + "." + a.key;
      if (!at_line(a.line_no, [&] {
            return s ? s->parse_node(spec, key.substr(dot + 1), a.value, ctx)
                     : parse_field(t.node, spec, key, a.value, ctx);
          })) {
        throw ConfigError("line " + std::to_string(a.line_no) +
                          ": unknown key '" + ctx.name + "'");
      }
    }
  }

  for (const auto& [index, ep] : fault_episodes) {
    config.fault_plan.episodes.push_back(ep);
  }
  for (const auto& [index, ev] : fault_events) {
    config.fault_plan.events.push_back(ev);
  }

  // Reject nonsense before it becomes a mysteriously-degenerate run.
  const auto reject = [](const std::string& where, const std::string& why) {
    if (!why.empty()) throw ConfigError(where + why);
  };
  reject("[tdma] ", config.tdma.validate());
  if (config.mac == MacKind::kCsmaCa) {
    try {
      config.csma.validate();
    } catch (const std::invalid_argument& e) {
      reject("[csma] ", e.what());
    }
  }
  reject("", config.fault_plan.validate());
  reject("", config.storage.validate());
  for (std::size_t i = 0; i < config.roster.size(); ++i) {
    if (!config.roster[i].storage) continue;
    reject("[node." + std::to_string(i + 1) + "] ",
           config.roster[i].storage->validate());
  }
  return config;
}

std::string serialize_config(const BanConfig& config) {
  const Table& t = table();
  std::string out;
  for (const Section* s : t.sections) s->emit(out, config);
  for (std::size_t i = 0; i < config.roster.size(); ++i) {
    const NodeSpec& spec = config.roster[i];
    header(out, "node." + std::to_string(i + 1));
    emit_fields(out, t.node, spec);
    for (const Section* s : t.sections) s->emit_node(out, spec);
  }
  return out;
}

}  // namespace bansim::core
