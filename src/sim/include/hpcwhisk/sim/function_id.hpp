#pragma once
// Dense function handle shared by every layer a call crosses.
//
// whisk::FunctionRegistry interns each function name at registration
// into the next FunctionId (0, 1, 2, ... in registration order), the way
// the broker interns topic names into mq::TopicId. sched, lease and
// runtime key their per-function state by it as flat vectors, so the
// serving path never hashes a name; names stay at the edges (client
// submit, activation records, decision logs). It lives in sim because
// sim is the one layer all of them include.

#include <cstdint>

namespace hpcwhisk::sim {

class FunctionId {
 public:
  /// Invalid: stem-cell containers, messages built outside a registry.
  constexpr FunctionId() = default;
  constexpr explicit FunctionId(std::uint32_t v) : value_{v} {}

  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }
  /// Index into per-function flat tables.
  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  constexpr bool operator==(const FunctionId&) const = default;

 private:
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  std::uint32_t value_{kInvalid};
};

}  // namespace hpcwhisk::sim
