#pragma once
// The (modified) OpenWhisk controller.
//
// Stock OpenWhisk assumes a static invoker set; HPC-Whisk's controller
// (Sec. III-C) instead maintains a *dynamic* membership list with
// continuous status reporting, and cooperates in the drain hand-off:
// when an invoker announces departure the controller stops routing to it
// and moves the unpulled backlog of its topic to the global fast lane.
//
// Heartbeats are lazy: an invoker announces when its periodic heartbeat
// series starts and stops, and the watchdog derives the last beat from
// that series' grid instead of receiving an event per beat. Membership
// work is proportional to the live invokers, not to every invoker ever
// registered (one per pilot, ~12k per simulated day).
//
// The controller is also the authoritative activation store: submission,
// 503 rejection, execution progress, completion and timeouts are all
// recorded here, which is what the paper calls the "OpenWhisk-level"
// measurement perspective.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/lease/lease_manager.hpp"
#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/sched/scheduler.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/whisk/activation.hpp"
#include "hpcwhisk/whisk/function.hpp"

namespace hpcwhisk::obs {
struct Observability;
class Histogram;
}

namespace hpcwhisk::whisk {

enum class InvokerHealth : std::uint8_t {
  kHealthy,       ///< registered, heartbeating, accepting work
  kDraining,      ///< announced departure; no new work routed
  kUnresponsive,  ///< missed heartbeats (hard-killed pilot)
  kGone,          ///< deregistered
};

[[nodiscard]] const char* to_string(InvokerHealth h);

/// Load-balancing policy for choosing the target invoker.
enum class RouteMode : std::uint8_t {
  /// OpenWhisk's sharding balancer: hash-selected home invoker, stepping
  /// to the next invokers (co-prime stride) while the home is saturated.
  kHashProbing,
  /// Pure hash routing (the simplest reading of Sec. II); saturation is
  /// ignored, which hurts tail latency under skewed load.
  kHashOnly,
  /// Ignore affinity entirely (baseline for the routing ablation).
  kRoundRobin,
  /// Always the least-loaded healthy invoker (upper-bound baseline).
  kLeastLoaded,
  /// Data-driven (sched::CallScheduler): minimize predicted completion
  /// time — per-invoker expected backlog plus the function's estimated
  /// duration, cold-start overhead included for invokers that never ran
  /// it.
  kLeastExpectedWork,
  /// Data-driven: keep the hash-homed invoker (warm reuse) unless its
  /// expected completion exceeds the best invoker's by more than a
  /// slack proportional to the call's predicted duration (SJF-flavored
  /// escape; see sched::CallScheduler).
  kSjfAffinity,
};

[[nodiscard]] const char* to_string(RouteMode m);
/// Parses the to_string() spellings ("hash-probing", "least-expected-work",
/// ...). Used by bench env knobs and SimCheck repro files.
[[nodiscard]] std::optional<RouteMode> route_mode_from_string(
    const std::string& name);
/// Whether the mode routes through the sched::CallScheduler.
[[nodiscard]] constexpr bool is_data_driven(RouteMode m) {
  return m == RouteMode::kLeastExpectedWork || m == RouteMode::kSjfAffinity;
}

struct SubmitResult {
  bool accepted{false};        ///< false => HTTP 503, no invoker available
  ActivationId activation{0};  ///< valid iff accepted
};

class Controller {
 public:
  struct Config {
    /// Invokers ping this often; missing `heartbeat_miss_limit` (>= 1)
    /// pings in a row marks the invoker unresponsive.
    sim::SimTime heartbeat_interval{sim::SimTime::seconds(2)};
    std::uint32_t heartbeat_miss_limit{3};
    /// How often the watchdog sweeps the membership list.
    sim::SimTime watchdog_interval{sim::SimTime::seconds(2)};
    RouteMode route_mode{RouteMode::kHashProbing};
    /// Per-invoker in-flight budget used by kHashProbing before stepping
    /// to the next invoker (OpenWhisk: invoker slot count).
    std::uint32_t invoker_slots{32};
    /// Estimator/policy knobs for the data-driven route modes; ignored
    /// (and no scheduler is instantiated) for the legacy modes, whose
    /// decision logs stay byte-identical.
    sched::SchedConfig sched{};
    /// Lease-based serving tier (rFaaS-style, PAPERS.md): hot functions
    /// are granted time-bounded leases on a warm invoker and later calls
    /// bypass the topic queue via the direct-invoke seam. Disabled by
    /// default — no LeaseManager is instantiated and every legacy
    /// decision log stays byte-identical.
    lease::LeaseConfig lease{};
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};
  };

  Controller(sim::Simulation& simulation, mq::Broker& broker,
             const FunctionRegistry& registry, Config config);
  Controller(sim::Simulation& simulation, mq::Broker& broker,
             const FunctionRegistry& registry);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // --- Client-facing API --------------------------------------------------

  /// Invokes `function`. Returns 503 (accepted == false) when no healthy
  /// invoker exists; otherwise records the activation and publishes it to
  /// the chosen invoker's topic.
  SubmitResult submit(const std::string& function);

  /// Completion callback: fires exactly once when the activation reaches
  /// a terminal state (immediately if it already has). Clients use this
  /// for blocking-invoke semantics and tests for synchronization.
  using CompletionCallback = std::function<void(const ActivationRecord&)>;
  void on_completion(ActivationId id, CompletionCallback cb);

  [[nodiscard]] const ActivationRecord& activation(ActivationId id) const;
  [[nodiscard]] const std::vector<ActivationRecord>& activations() const {
    return records_;
  }

  // --- Invoker-facing API (the "status message" protocol) -----------------

  /// Registers a new invoker; returns its id. Its topic is
  /// `invoker_topic_name(id)`.
  InvokerId register_invoker();

  /// Bypass channel for leased calls: `ready(spec)` is polled before any
  /// bookkeeping (so a refusal needs no rollback) and `invoke()` hands
  /// the message straight to the invoker, skipping the topic queue.
  /// `ready` sees the function spec so the invoker can refuse when its
  /// pool has neither a warm container for the function nor eviction-free
  /// admission headroom — a direct call then would cold-start at best and
  /// storm the pool at worst, while the queue path can probe elsewhere.
  /// The invoker installs its seam right after registering; the
  /// controller drops it when the invoker leaves or goes unresponsive.
  struct DirectSeam {
    std::function<bool(const FunctionSpec&)> ready;
    std::function<void(mq::Message)> invoke;
  };
  void set_direct_invoke(InvokerId id, DirectSeam seam);
  void clear_direct_invoke(InvokerId id);
  /// One explicit ping: records a beat now and readmits an unresponsive
  /// invoker.
  void heartbeat(InvokerId id);
  /// The invoker's periodic heartbeat series starts now: it beats every
  /// heartbeat_interval until stop_heartbeats(). The beats are derived
  /// (Simulation::next_grid_firing), not simulated, and a live series
  /// never goes unresponsive because the watchdog deadline spans at
  /// least one interval.
  void start_heartbeats(InvokerId id);
  /// The series stops now (stall, kill, drain done); its last beat
  /// freezes and the watchdog counts silence from there.
  void stop_heartbeats(InvokerId id);
  /// The invoker announces it is departing: routing stops and the
  /// unpulled backlog of its topic moves to the fast lane.
  void begin_drain(InvokerId id);
  /// Final deregistration once the invoker's hand-off completed.
  void deregister(InvokerId id);

  /// Re-publishes a message to the fast lane (drain hand-off, interrupted
  /// executions). Records the requeue on the activation.
  void requeue_to_fast_lane(mq::Message msg);

  /// Execution progress callbacks.
  void activation_started(ActivationId id, InvokerId by, bool cold_start);
  void activation_completed(ActivationId id);
  void activation_failed(ActivationId id);
  /// A running execution was interrupted (invoker draining); the caller
  /// re-publishes the message.
  void activation_interrupted(ActivationId id);

  /// Whether work may still be delivered for this activation (false once
  /// it reached a terminal state, e.g. timed out while queued — invokers
  /// drop such messages instead of executing them).
  [[nodiscard]] bool deliverable(ActivationId id) const;

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] static std::string invoker_topic_name(InvokerId id);
  [[nodiscard]] std::size_t healthy_count() const {
    return count_with_health(InvokerHealth::kHealthy);
  }
  [[nodiscard]] std::size_t count_with_health(InvokerHealth h) const {
    return health_counts_[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] InvokerHealth invoker_health(InvokerId id) const;
  [[nodiscard]] std::vector<InvokerId> healthy_invokers() const;
  /// Activations routed to `id` that have not reached a terminal state.
  [[nodiscard]] std::uint32_t in_flight(InvokerId id) const;

  /// The data-driven scheduler, or nullptr under a legacy route mode.
  [[nodiscard]] const sched::CallScheduler* scheduler() const {
    return scheduler_.get();
  }
  /// The lease manager, or nullptr when Config::lease.enabled is false.
  [[nodiscard]] const lease::LeaseManager* lease_manager() const {
    return leases_.get();
  }
  /// Predicted outstanding work across all invokers, in ticks (0 without
  /// a scheduler). Sampled by the federation gateway's health snapshots.
  [[nodiscard]] std::int64_t expected_backlog_ticks() const {
    return scheduler_ ? scheduler_->ledger().total() : 0;
  }

  /// In-flight activations summed over all invokers (time-series hook).
  [[nodiscard]] std::uint64_t total_in_flight() const {
    return total_in_flight_;
  }
  /// Unpulled messages across every invoker topic not yet gone plus the
  /// fast lane. Takes each topic's lock — meant for the sampling cadence
  /// (seconds), not for per-event paths.
  [[nodiscard]] std::size_t queued_messages() const;

  struct Counters {
    std::uint64_t submitted{0};
    std::uint64_t accepted{0};
    std::uint64_t sequence_invocations{0};
    std::uint64_t rejected_503{0};
    std::uint64_t completed{0};
    std::uint64_t failed{0};
    std::uint64_t timed_out{0};
    std::uint64_t requeued{0};
    std::uint64_t interrupted{0};
    std::uint64_t unresponsive_detected{0};
    /// Lease tier (all zero unless Config::lease.enabled).
    std::uint64_t lease_hits{0};     ///< calls served via the direct seam
    std::uint64_t lease_granted{0};  ///< leases acquired on the route path
    std::uint64_t lease_fallback{0};  ///< leased calls routed normally
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Time of the most recent 503 rejection (SimTime::zero() if none):
  /// input to the Alg. 1 client wrapper.
  [[nodiscard]] sim::SimTime last_503_time() const { return last_503_; }

  /// Audit hook: fires on every terminal transition made through the
  /// normal lifecycle (completed / failed / timed-out), after bookkeeping
  /// and before completion callbacks. Immediate 503 rejections never pass
  /// through it — they are terminal at submit(). One observer at a time.
  using TerminalObserver = std::function<void(const ActivationRecord&)>;
  void set_terminal_observer(TerminalObserver cb) {
    terminal_observer_ = std::move(cb);
  }

 private:
  struct InvokerEntry {
    InvokerHealth health{InvokerHealth::kHealthy};
    /// Latest explicit or frozen beat; a live series adds its grid.
    sim::SimTime last_heartbeat;
    sim::SimTime beat_origin;  ///< start of the live heartbeat series
    bool beating{false};
    std::uint32_t in_flight{0};
    /// The invoker's topic, resolved once at registration: submit()
    /// publishes through this pointer instead of re-hashing
    /// "invoker-<id>" per message.
    mq::Topic* topic{nullptr};
  };

  /// Picks the target invoker among `healthy` for `function`.
  [[nodiscard]] InvokerId route(const std::string& function,
                                const std::vector<InvokerId>& healthy);

  /// Serves an accepted call (records_.back()) through its lease's
  /// direct seam: same bookkeeping, trace chain and decision-log entry
  /// as the queue path, minus the topic publish.
  SubmitResult submit_leased(const std::string& function,
                             const FunctionSpec& spec, const lease::Lease& l,
                             const DirectSeam& seam);

  /// Arms the client-visible timeout for an accepted activation.
  void arm_timeout(const FunctionSpec& spec, ActivationId id);

  /// Drops every lease on `id` and forgets its direct seam (drain,
  /// deregistration, watchdog kill). No-op when leasing is off.
  void revoke_leases_on(InvokerId id);

  ActivationRecord& record(ActivationId id);
  void finish(ActivationRecord& rec, ActivationState state);
  /// The invoker's newest beat as of the current event.
  [[nodiscard]] sim::SimTime last_beat(const InvokerEntry& entry) const;
  /// The one place health changes: keeps healthy_, members_ and the
  /// per-health counts in step with invokers_.
  void set_health(InvokerId id, InvokerHealth health);
  void watchdog_sweep();
  /// Returns the ids of the activations it re-published.
  std::vector<ActivationId> move_backlog_to_fast_lane(InvokerId id);
  /// Re-submits in-flight activations of a vanished invoker (pulled into
  /// its buffer or mid-execution when it died) to the fast lane, skipping
  /// ids in `already_rescued` (its unpulled backlog, rescued separately).
  void rescue_in_flight(InvokerId id,
                        const std::vector<ActivationId>& already_rescued);

  /// Healthy ids in ascending order. Ascending order matches the
  /// std::map iteration this replaced, so routing decisions are
  /// byte-identical.
  [[nodiscard]] const std::vector<InvokerId>& healthy_view() const {
    return healthy_;
  }

  sim::Simulation& sim_;
  mq::Broker& broker_;
  const FunctionRegistry& registry_;
  Config config_;
  /// Dense, indexed by InvokerId (ids are sequential and entries are
  /// never erased — deregistration parks them at kGone).
  std::vector<InvokerEntry> invokers_;
  /// Ascending id sets maintained by set_health(): the healthy invokers
  /// (routing, watchdog) and every invoker not yet gone (queue depth).
  std::vector<InvokerId> healthy_;
  std::vector<InvokerId> members_;
  std::array<std::size_t, 4> health_counts_{};
  /// Sum of InvokerEntry::in_flight over all entries.
  std::uint64_t total_in_flight_{0};
  std::vector<ActivationRecord> records_;       // index == ActivationId
  std::unordered_map<ActivationId, sim::EventId> timeout_events_;
  std::unordered_map<ActivationId, std::vector<CompletionCallback>>
      completion_callbacks_;
  /// Present only for data-driven route modes.
  std::unique_ptr<sched::CallScheduler> scheduler_;
  /// Present only when Config::lease.enabled.
  std::unique_ptr<lease::LeaseManager> leases_;
  /// Direct-invoke seams, indexed by InvokerId (default-constructed =
  /// no seam). Only consulted when leasing is on.
  std::vector<DirectSeam> direct_;
  /// Scratch single-candidate list for charging leased calls through the
  /// scheduler without a per-call allocation.
  std::vector<InvokerId> lease_candidate_;
  /// Decision of the routing call currently inside submit(): carries the
  /// charge and the short-class verdict from route() to the publish.
  std::optional<sched::CallScheduler::Decision> pending_decision_;
  InvokerId next_invoker_id_{0};
  std::size_t round_robin_next_{0};
  sim::SimTime last_503_{sim::SimTime::zero()};
  TerminalObserver terminal_observer_;
  Counters counters_;
  /// Instrument handles resolved once at construction: the per-event
  /// paths must not pay a string build + map lookup per observation
  /// (that lookup was the bulk of the traced-overhead regression).
  obs::Histogram* h_queue_wait_{nullptr};
  obs::Histogram* h_response_{nullptr};
  obs::Histogram* h_pred_error_{nullptr};
};

}  // namespace hpcwhisk::whisk
