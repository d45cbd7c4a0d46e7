#pragma once
// A FIFO topic with pull-based consumption, mirroring how OpenWhisk
// invokers consume their individual Kafka topics.
//
// Thread-safe: the simulator itself is single-threaded, but benchmark
// harnesses drive independent brokers from worker threads, so the topic
// guards its queue with a mutex (uncontended locks are cheap).
//
// Hot-path shape: consumers poll far more often than producers publish,
// so the empty case is the common case. approx_empty() answers it with
// one relaxed atomic load — no lock — and poll_into()/poll_one() bail
// out through it before ever touching the mutex. poll_into() appends to
// a caller-owned scratch vector, so a steady-state poll tick performs
// zero allocations.
//
// Wake-up: a consumer that stops polling an empty topic arms a one-shot
// Waiter, which fires on the topic's next empty -> non-empty transition
// (every delivery path, fault-delayed copies included). Waiters fire in
// arming order; one armed by a firing callback waits for the next
// transition.
//
// Fault injection: an optional fault filter intercepts every publish and
// may drop, delay, or duplicate the message — the broker-level failure
// modes an at-least-once pipeline must survive. The filter is consulted
// once per publish; delayed and duplicated copies are delivered through
// an internal path that bypasses it, so a fault decision never cascades.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hpcwhisk/mq/message.hpp"

namespace hpcwhisk::sim {
class Simulation;
}  // namespace hpcwhisk::sim

namespace hpcwhisk::mq {

/// Dense broker-assigned topic handle (interning): stable for the
/// broker's lifetime, resolvable back to the topic without hashing the
/// name. Default-constructed ids are invalid (a topic created outside a
/// broker never gets one).
class TopicId {
 public:
  constexpr TopicId() = default;
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }
  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  constexpr bool operator==(const TopicId&) const = default;

 private:
  friend class Broker;
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  constexpr explicit TopicId(std::uint32_t v) : value_{v} {}
  std::uint32_t value_{kInvalid};
};

class Topic {
 public:
  /// One-shot wake-up hook, owned by the consumer. Armed on at most one
  /// topic at a time; disarms itself when it fires, when cancelled and
  /// when destroyed, so the owner may die while it is armed.
  class Waiter {
   public:
    explicit Waiter(std::function<void()> on_wake)
        : on_wake_{std::move(on_wake)} {}
    ~Waiter() { cancel(); }
    Waiter(const Waiter&) = delete;
    Waiter& operator=(const Waiter&) = delete;

    [[nodiscard]] bool armed() const { return topic_ != nullptr; }
    /// Disarms without firing. Idempotent.
    void cancel();

   private:
    friend class Topic;
    std::function<void()> on_wake_;
    Topic* topic_{nullptr};
    Waiter* prev_{nullptr};
    Waiter* next_{nullptr};
    std::uint64_t epoch_{0};  ///< the topic's wake epoch when armed
  };

  explicit Topic(std::string name) : name_{std::move(name)} {}
  ~Topic();

  Topic(const Topic&) = delete;
  Topic& operator=(const Topic&) = delete;

  /// Arms `w` to fire on this topic's next empty -> non-empty transition.
  /// No-op if `w` is already armed here; re-arms it if armed elsewhere.
  void add_waiter(Waiter& w);

  [[nodiscard]] const std::string& name() const { return name_; }
  /// The broker-assigned intern id; invalid for free-standing topics.
  [[nodiscard]] TopicId id() const { return id_; }

  /// Appends a message to the tail. Stamps first_published on the first
  /// publish and bumps delivery_count. Subject to the fault filter.
  void publish(Message msg, sim::SimTime now);

  /// Like publish(), but enqueues at the *head*: the message preempts
  /// queue position (deadline-class dispatch), never a consumer that has
  /// already pulled. Subject to the fault filter; a fault-delayed copy
  /// loses its front position (it re-enters whenever the delay fires).
  void publish_front(Message msg, sim::SimTime now);

  /// One relaxed atomic load, no lock. Precise whenever publishes and
  /// polls happen on one thread (the simulator); under concurrent
  /// producers a consumer may see a just-published message one poll
  /// late, which pull-based consumption tolerates by construction.
  [[nodiscard]] bool approx_empty() const {
    return approx_size_.load(std::memory_order_relaxed) == 0;
  }

  /// Pops up to `max_count` messages from the head (FIFO), appending to
  /// `out`. Returns the number popped. The empty case returns through
  /// approx_empty() without locking or allocating.
  std::size_t poll_into(std::size_t max_count, std::vector<Message>& out);

  /// Pops up to `max_count` messages from the head (FIFO). Convenience
  /// wrapper over poll_into() that allocates the result vector.
  [[nodiscard]] std::vector<Message> poll(std::size_t max_count);

  /// Pops a single message, if any.
  [[nodiscard]] std::optional<Message> poll_one();

  /// Removes and returns *all* queued messages. Used by the controller to
  /// move a draining invoker's unpulled backlog to the fast-lane topic.
  [[nodiscard]] std::vector<Message> drain();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  // --- Fault injection -----------------------------------------------------

  /// What the fault filter decided for one publish. Default = deliver
  /// normally. `drop` wins over the other fields.
  struct FaultAction {
    bool drop{false};
    /// Extra copies enqueued beyond the original (at-least-once
    /// duplication, e.g. a producer retry after a lost ack).
    std::uint32_t extra_copies{0};
    /// Delivery delay; requires a simulation to schedule against (the
    /// message is delivered whole after the delay, copies included).
    sim::SimTime delay{sim::SimTime::zero()};
  };
  using FaultFilter = std::function<FaultAction(const Message&)>;

  /// Installs (or, with an empty function, removes) the fault filter.
  /// `simulation` is required for delayed delivery; without it, delays
  /// degrade to immediate delivery.
  void set_fault_filter(FaultFilter filter, sim::Simulation* simulation);

  /// Lifetime counters (monotonic).
  struct Counters {
    std::uint64_t published{0};
    std::uint64_t front_published{0};  ///< subset of published
    std::uint64_t consumed{0};
    std::uint64_t drained{0};
    std::uint64_t fault_dropped{0};
    std::uint64_t fault_delayed{0};
    std::uint64_t fault_duplicated{0};  ///< extra copies enqueued
  };
  [[nodiscard]] Counters counters() const;

 private:
  friend class Broker;  ///< assigns id_ at interning time

  /// Enqueues one copy, bypassing the fault filter.
  void deliver(Message msg, sim::SimTime now);
  void deliver_front(Message msg, sim::SimTime now);
  /// Fires, in arming order, every waiter armed before the call.
  void wake_waiters();
  /// Unlinks `w` from the waiter list; caller holds mu_.
  void unlink_locked(Waiter& w);

  const std::string name_;
  TopicId id_;
  mutable std::mutex mu_;
  std::deque<Message> queue_;
  /// Mirrors queue_.size(); written under mu_, readable without it.
  std::atomic<std::size_t> approx_size_{0};
  FaultFilter fault_filter_;
  sim::Simulation* sim_{nullptr};
  Counters counters_;
  /// Armed waiters, intrusive FIFO list (guarded by mu_).
  Waiter* waiters_head_{nullptr};
  Waiter* waiters_tail_{nullptr};
  std::uint64_t wake_epoch_{0};
};

}  // namespace hpcwhisk::mq
