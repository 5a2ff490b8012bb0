// Structured event tracing.
//
// Models emit timestamped records into a Tracer; sinks decide what happens
// to them (discarded, printed, retained in memory for tests and for the
// TDMA-timeline figures).  Tracing is designed to be cheap when nobody
// listens: a category check is one array load, node names are interned once
// at component construction, and hot call sites use the *deferred* emit
// overload — they pass a message-building callable that is only invoked
// when the category is enabled, so a tracing-off run formats nothing and
// allocates nothing.  When tracing is on, messages are composed in a
// fixed-capacity TraceMessage buffer (integers and times formatted without
// heap temporaries) and copied into the record once.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace bansim::sim {

/// Trace categories, one bit of filtering granularity per subsystem.
enum class TraceCategory : std::uint8_t {
  kKernel = 0,   ///< event-queue / simulator internals
  kOs,           ///< task scheduler, timers, power manager
  kMcu,          ///< microcontroller state transitions
  kRadio,        ///< radio state machine, FIFO, CRC
  kChannel,      ///< air frames, collisions
  kMac,          ///< TDMA slots, beacons, joins
  kApp,          ///< application-level events
  kEnergy,       ///< energy meter transitions
  kCount
};

[[nodiscard]] const char* to_string(TraceCategory c);

/// Interned node-name handle.  Id 0 is always the anonymous/global node "".
using TraceNodeId = std::uint32_t;

/// Fixed-capacity message builder for the deferred emit path.  Everything
/// is formatted into an internal char buffer with to_chars-style
/// primitives, so composing the common "state -> idle (42 cyc)" messages
/// performs no heap allocation.  Messages longer than the capacity are
/// truncated (traces are human-readable, not a wire format).
class TraceMessage {
 public:
  static constexpr std::size_t kCapacity = 160;

  TraceMessage& operator<<(std::string_view s) {
    append(s.data(), s.size());
    return *this;
  }

  TraceMessage& operator<<(char c) {
    if (size_ < kCapacity) buf_[size_++] = c;
    return *this;
  }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, char> &&
             !std::is_same_v<T, bool>)
  TraceMessage& operator<<(T value) {
    char tmp[24];
    const auto [end, ec] = std::to_chars(tmp, tmp + sizeof tmp, value);
    if (ec == std::errc{}) append(tmp, static_cast<std::size_t>(end - tmp));
    return *this;
  }

  TraceMessage& operator<<(double value);

  /// Renders with the same auto-chosen unit as Duration::to_string()
  /// ("1.500 ms"), but into the fixed buffer.
  TraceMessage& operator<<(Duration d);
  TraceMessage& operator<<(TimePoint t);

  [[nodiscard]] std::string_view view() const { return {buf_, size_}; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void append(const char* data, std::size_t n) {
    const std::size_t room = kCapacity - size_;
    if (n > room) n = room;
    std::memcpy(buf_ + size_, data, n);
    size_ += n;
  }

  char buf_[kCapacity];
  std::size_t size_{0};
};

/// One trace record.  The node name lives in the originating Tracer's
/// intern table; records (and copies of them, e.g. in a MemorySink) remain
/// valid as long as that Tracer does.
struct TraceRecord {
  TimePoint when;
  TraceCategory category{TraceCategory::kKernel};
  TraceNodeId node_id{0};
  std::string message;  ///< human-readable payload

  /// Emitting node name, empty for global events.
  [[nodiscard]] const std::string& node() const;

  // Set by Tracer::emit; points into the Tracer's intern table.
  const std::string* node_name{nullptr};
};

/// Destination of trace records.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const TraceRecord& record) = 0;
};

/// Retains records in memory; used by tests and the timeline renderers.
class MemorySink final : public TraceSink {
 public:
  void consume(const TraceRecord& record) override { records_.push_back(record); }
  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

 private:
  std::vector<TraceRecord> records_;
};

/// Writes "t=... [cat] node: message" lines to stdout.
class StdoutSink final : public TraceSink {
 public:
  void consume(const TraceRecord& record) override;
};

/// Category-filtered fan-out of trace records to registered sinks.
class Tracer {
 public:
  Tracer();

  /// Registers a sink and enables the categories it wants.
  void attach(std::shared_ptr<TraceSink> sink,
              std::initializer_list<TraceCategory> categories);

  /// Enables/disables a category globally.
  void set_enabled(TraceCategory category, bool enabled) {
    enabled_[static_cast<std::size_t>(category)] = enabled;
  }

  [[nodiscard]] bool enabled(TraceCategory category) const {
    return enabled_[static_cast<std::size_t>(category)];
  }

  /// Interns `name`, returning a stable handle; the same name always maps
  /// to the same id.  Components intern their node name once at
  /// construction and pass the handle to emit().
  TraceNodeId intern(std::string_view name);

  /// Pre-sizes the intern table for `names` distinct node names, so cell
  /// construction doesn't rehash it incrementally during warm-up.
  void reserve(std::size_t names) { index_.reserve(names); }

  /// The name behind an interned handle.
  [[nodiscard]] const std::string& node_name(TraceNodeId id) const {
    return names_[id];
  }

  /// Deferred-formatting emit: the hot path.  `build` is only invoked when
  /// the category is enabled, so call sites pay one branch — no message
  /// formatting, no allocation — in the (default) tracing-off case:
  ///
  ///   tracer.emit(now, TraceCategory::kMac, trace_node_,
  ///               [&](sim::TraceMessage& m) { m << "slot " << slot; });
  template <typename BuildFn>
    requires std::is_invocable_v<BuildFn&, TraceMessage&>
  void emit(TimePoint when, TraceCategory category, TraceNodeId node,
            BuildFn&& build) {
    if (!enabled(category)) return;
    TraceMessage message;
    build(message);
    dispatch(when, category, node, message.view());
  }

  /// Deferred emit for call sites without a pre-interned handle.
  template <typename BuildFn>
    requires std::is_invocable_v<BuildFn&, TraceMessage&>
  void emit(TimePoint when, TraceCategory category, std::string_view node,
            BuildFn&& build) {
    if (!enabled(category)) return;
    TraceMessage message;
    build(message);
    dispatch(when, category, intern(node), message.view());
  }

  /// Eager overload for pre-built messages (tests, cold paths).
  void emit(TimePoint when, TraceCategory category, TraceNodeId node,
            std::string_view message) {
    if (!enabled(category)) return;
    dispatch(when, category, node, message);
  }

  /// Eager overload that also interns on the fly.
  void emit(TimePoint when, TraceCategory category, std::string_view node,
            std::string_view message) {
    if (!enabled(category)) return;
    dispatch(when, category, intern(node), message);
  }

 private:
  /// Builds the record and fans it out.  Precondition: category enabled.
  void dispatch(TimePoint when, TraceCategory category, TraceNodeId node,
                std::string_view message);

  std::array<bool, static_cast<std::size_t>(TraceCategory::kCount)> enabled_{};
  std::vector<std::shared_ptr<TraceSink>> sinks_;
  // Interned names.  std::deque keeps element addresses stable, so the
  // string_view keys of index_ and the node_name pointers handed to records
  // survive growth.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, TraceNodeId> index_;
};

}  // namespace bansim::sim
