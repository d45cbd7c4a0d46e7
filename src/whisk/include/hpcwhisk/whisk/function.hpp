#pragma once
// FaaS function model: a named, stateless action with a memory footprint
// and an execution-duration model (the simulator's stand-in for the
// function body). Mirrors the aspects of an OpenWhisk action that matter
// to scheduling and to the paper's experiments.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/sim/function_id.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::whisk {

using sim::FunctionId;

struct FunctionSpec {
  std::string name;
  /// Dense id stamped by FunctionRegistry::put; invalid on a spec that
  /// was never registered.
  FunctionId id;
  /// Runtime kind (image family) the function needs; a matching
  /// prewarmed stem-cell container turns its first call into a near-warm
  /// start.
  std::string kind{"python:3"};
  std::int64_t memory_mb{256};

  /// Samples one execution's duration (on an unloaded node).
  std::function<sim::SimTime(sim::Rng&)> duration;

  /// Controller-side activation timeout: if an accepted activation has
  /// not completed within this bound, the client gets a timeout error.
  sim::SimTime timeout{sim::SimTime::minutes(5)};

  /// Whether a draining invoker may interrupt a running execution of
  /// this function and requeue it to the fast lane (Sec. III-C: clients
  /// whose functions modify external state non-atomically opt out).
  bool interruptible{true};

  /// OpenWhisk action sequence: when this function completes, the
  /// controller automatically invokes `next` ("functions may be
  /// triggered by HTTP requests or other functions", Sec. II). Empty =
  /// no chaining. The chained invocation is a fresh activation routed
  /// like any other.
  std::string next;
};

/// Convenience: a function that always takes exactly `d`.
[[nodiscard]] FunctionSpec fixed_duration_function(std::string name,
                                                   sim::SimTime d,
                                                   std::int64_t memory_mb = 256);

/// The one name -> id table: interns each function name at registration
/// into the next dense FunctionId, so every layer past the client edge
/// indexes flat tables by id.
class FunctionRegistry {
 public:
  /// Registers (or replaces) a function and returns its id: a new name
  /// gets the next id in registration order, a re-put keeps its id.
  FunctionId put(FunctionSpec spec);

  /// Id of a registered name. Throws std::out_of_range if absent.
  [[nodiscard]] FunctionId id(const std::string& name) const;
  [[nodiscard]] const FunctionSpec* find(const std::string& name) const;
  /// Throws std::out_of_range if absent.
  [[nodiscard]] const FunctionSpec& at(const std::string& name) const;
  /// By id: an index, no hashing. Throws std::out_of_range for an id
  /// this registry did not hand out.
  [[nodiscard]] const FunctionSpec& at(FunctionId id) const {
    return specs_.at(id.value());
  }
  /// function_hash() of the name, computed once at registration.
  [[nodiscard]] std::uint64_t hash(FunctionId id) const {
    return hashes_.at(id.value());
  }

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  /// Registered names in id order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::unordered_map<std::string, FunctionId> ids_;
  std::vector<FunctionSpec> specs_;    // index == FunctionId
  std::vector<std::uint64_t> hashes_;  // index == FunctionId
};

/// FNV-1a hash of the function name; OpenWhisk derives the "home" invoker
/// of a function from such a hash so repeated calls land on warm
/// containers (Sec. II).
[[nodiscard]] std::uint64_t function_hash(const std::string& name);

}  // namespace hpcwhisk::whisk
