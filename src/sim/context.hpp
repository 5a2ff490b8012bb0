// Per-run simulation context.
//
// One SimContext is one deterministic simulated world: the event kernel,
// the tracer, and the root RNG seed from which every named random stream
// derives.  Components take a SimContext& instead of threading
// (Simulator&, Tracer&) pairs through every constructor, so adding a new
// shared service never ripples through the whole stack again.
//
// Stream derivation is positionless: `stream("mac/node3")` always returns
// the same sequence for the same seed regardless of how many other streams
// were created before it, which is the property the determinism guarantee
// (DESIGN.md) rests on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::sim {

class CheckHooks;

class SimContext {
 public:
  explicit SimContext(std::uint64_t seed = 1) : seed_{seed}, root_rng_{seed} {}
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  Simulator simulator;
  Tracer tracer;

  /// The experiment seed all named streams derive from.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The root RNG: draws here are positional (order-dependent), so reserve
  /// it for code that owns the whole context; model components should use
  /// named streams instead.
  [[nodiscard]] Rng& root_rng() { return root_rng_; }

  /// Derives the independent named stream for this context's seed; the same
  /// (seed, name) pair always produces the same sequence.
  [[nodiscard]] Rng stream(std::string_view name) const {
    return Rng::stream(seed_, name);
  }

  /// Per-node stream derivation: "<domain>/<node>", e.g.
  /// node_stream("mac", "node3") == stream("mac/node3").
  [[nodiscard]] Rng node_stream(std::string_view domain,
                                std::string_view node) const {
    std::string name;
    name.reserve(domain.size() + 1 + node.size());
    name.append(domain).append("/").append(node);
    return Rng::stream(seed_, name);
  }

  /// The attached checking-layer observer, or nullptr (the default).
  /// Components re-read this slot at every emission site, so a monitor can
  /// attach at any time; see sim/check_hooks.hpp for the observer contract.
  [[nodiscard]] CheckHooks* check_hooks() const { return check_hooks_; }
  void set_check_hooks(CheckHooks* hooks) { check_hooks_ = hooks; }

 private:
  std::uint64_t seed_;
  Rng root_rng_;
  CheckHooks* check_hooks_{nullptr};
};

}  // namespace bansim::sim
