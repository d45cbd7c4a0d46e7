#pragma once
// The (modified) OpenWhisk invoker that runs inside an HPC-Whisk pilot
// job.
//
// Consumption order implements the paper's fast-lane rule (Sec. III-C):
// before pulling from its own topic, the invoker first pulls from the
// global fast-lane topic, so requests re-issued by terminating workers
// execute with the highest priority.
//
// The pull loop polls on a fixed grid, origin + k * poll_interval, where
// the origin is the start (or the thaw after a stall). Most of a pilot's
// life is idle, so the loop is event-driven on that grid: a tick that
// leaves the fast lane, the own topic and the pull buffer empty with the
// stem-cell pool full *parks* the invoker. A parked invoker holds no
// tick event; one-shot waiters on both topics wake it on their next
// empty -> non-empty transition, as does a direct hand-over that took a
// stem cell, and it then
// polls at the first grid tick the skipped loop had not yet run, in that
// tick's place among same-instant events (Simulation::at_grid). With a
// keep-alive reap cadence the next reap's grid tick stays armed while
// parked. Non-empty polls thus happen at the same instants, in the same
// order, as with a loop ticking every poll_interval. Heartbeats are lazy
// the same way: the invoker only tells the controller when its heartbeat
// series starts and stops.
//
// On SIGTERM the invoker performs the drain hand-off:
//   1. tells the controller it no longer accepts work (the controller
//      simultaneously rescues the unpulled backlog of its topic);
//   2. re-publishes its pulled-but-not-started buffer to the fast lane;
//   3. interrupts running executions of interruptible functions and
//      re-publishes them too; non-interruptible executions keep running
//      until they finish (or the pilot's SIGKILL arrives);
//   4. deregisters and reports drain completion to the pilot, which then
//      exits the Slurm job early — inside the grace period.
//
// hard_kill() models a SIGKILL with no hand-off (stock-OpenWhisk failure
// mode): buffered and running work is lost and the affected activations
// surface as client timeouts.

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/runtime/container_pool.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/whisk/controller.hpp"
#include "hpcwhisk/whisk/function.hpp"

namespace hpcwhisk::obs {
class Counter;
class Histogram;
}

namespace hpcwhisk::whisk {

class Invoker {
 public:
  struct Config {
    /// Pull-loop cadence: the spacing of the poll grid. Only ticks that
    /// can find work are simulated (see the header comment).
    sim::SimTime poll_interval{sim::SimTime::millis(100)};
    /// Messages pulled per poll (fast lane + own topic combined).
    std::size_t pull_batch{8};
    /// Dispatch gate: executions started concurrently; messages beyond
    /// it wait in the invoker buffer (drain hand-off material).
    std::size_t max_concurrent{32};
    /// Physical cores of the node (Prometheus: 2x12); concurrent
    /// CPU-bound executions beyond this dilate each other.
    std::uint32_t cores{24};
    bool cpu_dilation{true};
    runtime::ContainerPool::Config pool{
        .memory_mb = 8 * 1024,  // OpenWhisk invoker "user memory"
        .max_containers = 24,
        .idle_timeout = sim::SimTime::minutes(10),
    };
    runtime::RuntimeKind runtime_kind{runtime::RuntimeKind::kSingularity};
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};
  };

  Invoker(sim::Simulation& simulation, mq::Broker& broker,
          const FunctionRegistry& registry, Controller& controller,
          Config config, sim::Rng rng);

  Invoker(const Invoker&) = delete;
  Invoker& operator=(const Invoker&) = delete;
  ~Invoker();

  /// Registers with the controller, starts the poll grid one interval
  /// from now and the heartbeat series. Call once, after the pilot's
  /// warm-up completed.
  void start();

  /// SIGTERM: runs the drain hand-off; `on_drained` fires when the last
  /// local work item left (immediately if there is none). A stalled
  /// invoker ignores SIGTERM — the frozen process cannot run the
  /// hand-off, so only the pilot's eventual SIGKILL ends it.
  void sigterm(std::function<void()> on_drained);

  /// SIGKILL without hand-off: everything local is lost.
  void hard_kill();

  /// Fault injection: freezes the invoker for `duration` — no polling, no
  /// heartbeats, running executions suspended with their remaining time
  /// preserved (a GC pause / NFS hang / CPU-starved node). The controller
  /// watchdog sees only silence and marks the invoker unresponsive.
  /// resume() fires automatically after `duration`. No-op if not started,
  /// draining, dead, or already stalled.
  void stall(sim::SimTime duration);

  /// Ends a stall early (or on schedule): restarts the poll grid and the
  /// heartbeat series from now, heartbeats immediately so the controller
  /// readmits us, and resumes suspended executions with their preserved
  /// remaining time.
  void resume();

  /// Whether a leased call for `spec` may be handed over right now:
  /// alive, not departing, under the dispatch gate, and the pool either
  /// holds a warm container for the function or can admit a new one
  /// without evicting — a direct call must not trigger eviction storms
  /// or capacity failures the queue path would have probed around.
  /// Checked by the controller's direct seam *before* any hand-over, so
  /// a refusal needs no rollback.
  [[nodiscard]] bool can_direct_invoke(const FunctionSpec& spec) const {
    return started_ && !draining_ && !dead_ && !stalled_ &&
           running_.size() < config_.max_concurrent &&
           (pool_.has_warm_idle(spec.name, spec.memory_mb) ||
            pool_.can_admit(spec.memory_mb));
  }
  /// Direct hand-over of a leased call: starts execution immediately,
  /// skipping the topic queue and the poll cadence entirely. Wakes a
  /// parked invoker if the call took a stem cell, which the next grid
  /// tick refills.
  void direct_invoke(mq::Message msg);

  [[nodiscard]] InvokerId id() const { return id_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool draining() const { return draining_; }
  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] bool stalled() const { return stalled_; }
  /// Idle between grid ticks with no poll armed (see the header comment).
  [[nodiscard]] bool parked() const { return parked_; }
  [[nodiscard]] std::size_t running_executions() const { return running_.size(); }
  [[nodiscard]] std::size_t buffered_messages() const { return buffer_.size(); }
  [[nodiscard]] const runtime::ContainerPool& pool() const { return pool_; }

  struct Counters {
    std::uint64_t executed{0};
    std::uint64_t capacity_failures{0};
    std::uint64_t interrupted{0};
    std::uint64_t dropped_undeliverable{0};
    std::uint64_t direct_invocations{0};  ///< leased calls handed over
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  enum class ExecPhase { kStarting, kRunning };
  struct Exec {
    mq::Message msg;
    runtime::ContainerId container{0};
    ExecPhase phase{ExecPhase::kStarting};
    sim::EventId event;       ///< pending start or completion event
    sim::SimTime due{};       ///< absolute time `event` fires
    sim::SimTime remaining{}; ///< time left when suspended by stall()
    bool cold{false};
  };

  /// One grid tick: poll(), then park or arm the next tick.
  void tick();
  void poll();
  /// Whether the tick that just ran leaves nothing for the next one.
  [[nodiscard]] bool idle() const;
  /// Arms the waiters (and the reap tick, if reaping); no poll until woken.
  void park();
  /// Leaves the parked state: the first grid tick not yet run polls.
  void wake();
  void unpark();
  void arm_tick(sim::SimTime when);
  /// First grid tick at or after `t`.
  [[nodiscard]] sim::SimTime grid_ceil(sim::SimTime t) const;
  void dispatch_buffer();
  void begin_execution(mq::Message msg);
  /// Schedules the exec's next phase transition `delay` from now,
  /// recording the absolute due time so stall() can suspend it.
  void schedule_exec_event(ActivationId act, sim::SimTime delay);
  /// Phase transition: kStarting -> kRunning (container warm, duration
  /// drawn) or kRunning -> done (release, report, dispatch next).
  void on_exec_event(ActivationId act);
  void finish_drain_if_idle();
  void start_loops();
  /// Cancels the armed tick and disarms the waiters.
  void stop_ticking();
  void stop_loops();

  sim::Simulation& sim_;
  mq::Broker& broker_;
  const FunctionRegistry& registry_;
  Controller& controller_;
  Config config_;
  sim::Rng rng_;
  runtime::ContainerPool pool_;
  InvokerId id_{kNoInvoker};
  mq::Topic* own_topic_{nullptr};
  mq::Topic* fast_lane_{nullptr};
  /// Reused across poll ticks: pulling never allocates in steady state.
  std::vector<mq::Message> pull_scratch_;
  std::deque<mq::Message> buffer_;
  std::unordered_map<ActivationId, Exec> running_;
  /// Poll grid: origin + k * poll_interval, restarted on thaw.
  sim::Simulation::Grid grid_;
  /// Instant of the last tick that ran (a wake never re-polls it).
  sim::SimTime last_tick_;
  /// The armed grid tick; none while parked.
  sim::EventId tick_event_;
  /// With a reap cadence: the reap's due grid tick, armed while parked
  /// (and left armed across wakes until a reap moves it).
  sim::EventId reap_event_;
  sim::SimTime reap_due_;
  mq::Topic::Waiter own_waiter_{[this] { wake(); }};
  mq::Topic::Waiter fast_waiter_{[this] { wake(); }};
  bool ticking_{false};  ///< the poll grid is live (armed or parked)
  bool parked_{false};
  bool started_{false};
  bool draining_{false};
  bool dead_{false};
  bool stalled_{false};
  /// Last periodic reap_idle() sweep (keep-alive reap_interval > 0).
  sim::SimTime last_reap_;
  sim::EventId resume_event_;
  std::function<void()> on_drained_;
  Counters counters_;
  /// Registry instruments resolved once at construction (shared across
  /// invokers by name; monotone across pilot churn). Per-event string
  /// lookups here were the bulk of the traced-overhead regression.
  obs::Histogram* h_exec_us_{nullptr};
  obs::Counter* c_executed_{nullptr};
  obs::Counter* c_dropped_{nullptr};
  obs::Counter* c_capacity_{nullptr};
  obs::Counter* c_interrupted_{nullptr};
  obs::Counter* c_cold_starts_{nullptr};
  obs::Counter* c_warm_hits_{nullptr};
  obs::Counter* c_prewarm_hits_{nullptr};
};

}  // namespace hpcwhisk::whisk
