#pragma once
// Messages carried by the broker. In OpenWhisk, per-invoker Kafka topics
// carry activation requests; we carry an opaque 64-bit id (the activation
// id) plus the interned function it invokes.

#include <cstdint>

#include "hpcwhisk/sim/function_id.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::mq {

struct Message {
  /// Application-level id (HPC-Whisk stores the activation id here).
  std::uint64_t id{0};
  /// First time this message was published to any topic.
  sim::SimTime first_published;
  /// How many times the message has been (re)published — 1 on first
  /// publish, +1 per fast-lane reroute. Diagnoses requeue storms.
  std::uint32_t delivery_count{0};
  /// Routing key: the function the activation invokes (the registry's
  /// dense id, resolved once at submit).
  sim::FunctionId function_id;
};

}  // namespace hpcwhisk::mq
