#pragma once
// The simulation driver: a virtual clock plus an event queue.
//
// Components schedule callbacks with at()/after()/every(); run() advances
// the clock event by event. The driver is strictly single-threaded; all
// determinism guarantees follow from EventQueue's FIFO tie-breaking.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hpcwhisk/sim/event_queue.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sim {

class Simulation;

namespace detail {
struct PeriodicState {
  Simulation* sim{nullptr};
  SimTime interval;
  EventQueue::Callback cb;
  EventId current;
  bool stopped{false};
};
}  // namespace detail

/// Handle controlling a periodic series created by Simulation::every().
/// Default-constructed handles are inert. Copyable: all copies control the
/// same series.
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  /// Stops the series before its next firing. Idempotent.
  void stop();
  [[nodiscard]] bool active() const { return st_ && !st_->stopped; }

 private:
  friend class Simulation;
  explicit PeriodicHandle(std::shared_ptr<detail::PeriodicState> st)
      : st_{std::move(st)} {}
  std::shared_ptr<detail::PeriodicState> st_;
};

class Simulation {
 public:
  /// Inline-storage callable: scheduling typical closures never touches
  /// the heap (see InplaceCallback).
  using Callback = EventQueue::Callback;

  Simulation() = default;
  /// Breaks callback<->handle reference cycles of still-armed periodic
  /// series so they are freed with the simulation.
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventId at(SimTime when, Callback cb) {
    if (when < now_) throw std::invalid_argument("Simulation::at: time in the past");
    return queue_.schedule(when, std::move(cb), now_);
  }

  /// Schedules `cb` to fire `delay` after the current time.
  EventId after(SimTime delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` every `interval`, starting one interval from now,
  /// until the returned handle is stopped or the simulation ends.
  PeriodicHandle every(SimTime interval, Callback cb);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// A periodic series whose firings its owner arms one at a time and
  /// may skip while idle (a parked invoker's poll loop, lazy heartbeats):
  /// it fires at origin + k*interval (k >= 1), and a simulated loop would
  /// have armed each firing one interval before it.
  struct Grid {
    SimTime origin;
    SimTime interval;
    /// Place among other grids' firings at the same instant (birth order,
    /// see start_grid()); 0 for a grid read but never armed.
    std::int64_t rank{0};
  };

  /// Starts a grid at now(). A simulated loop started by this event
  /// would arm its first firing before every older loop's firing at the
  /// next instants iff this event was scheduled no later than
  /// now() - interval (it then runs before their firings due now, which
  /// were armed then); otherwise after all of them. The rank records that.
  Grid start_grid(SimTime interval);

  /// Arms the grid's firing at `when` (a grid instant >= now()) in the
  /// slot of the simulated loop's firing: scheduled at when - interval,
  /// and ranked among the other grids' firings of that instant.
  EventId at_grid(const Grid& grid, SimTime when, Callback cb) {
    if (when < now_) throw std::invalid_argument("Simulation::at_grid: time in the past");
    return queue_.schedule(when, std::move(cb), when - grid.interval,
                           grid.rank);
  }

  /// The earliest firing of `grid` that has not run as seen from the
  /// current event. A firing due at exactly now() has run iff it sorts
  /// before the current event (armed at now() - interval, then rank);
  /// outside event dispatch every firing due at now() has run.
  [[nodiscard]] SimTime next_grid_firing(const Grid& grid) const;

  /// Runs events until the queue is empty or the clock would pass `until`.
  /// Events scheduled exactly at `until` do fire; afterwards now() == until
  /// (or the last event time if the queue drained early).
  void run_until(SimTime until);

  /// Runs until the event queue is fully drained.
  void run();

  /// Executes exactly one event if any is pending; returns whether it did.
  bool step();

  /// Moves the clock forward to `t` without executing anything (requires
  /// no pending events earlier than `t`).
  void settle_to(SimTime t);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed so far (perf telemetry: events/sec is the
  /// simulator's fundamental throughput unit).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  friend class PeriodicHandle;

  /// Fires one periodic tick and re-arms. The scheduled closure captures
  /// only the raw state pointer (8 trivially-copyable bytes), so every
  /// rearm fits std::function's small-buffer storage — periodic series
  /// (invoker poll loops, samplers: millions of firings per run) never
  /// touch the heap after creation. Ownership lives in periodics_.
  void fire_periodic(detail::PeriodicState* st);
  void arm_periodic(detail::PeriodicState* st);
  void release_periodic(const detail::PeriodicState* st);

  SimTime now_{SimTime::zero()};
  /// Order key of the event being dispatched (now_ and 0 between events).
  SimTime scheduled_at_{SimTime::zero()};
  std::int64_t rank_{0};
  /// start_grid() ranks: births in front of the older grids count down in
  /// blocks (one per instant, in birth order inside), births behind them
  /// count up.
  std::int64_t front_block_{0};
  std::int64_t front_next_{0};
  SimTime front_block_at_{SimTime::max()};
  std::int64_t back_next_{0};
  EventQueue queue_;
  std::uint64_t executed_{0};
  std::vector<std::shared_ptr<detail::PeriodicState>> periodics_;
};

}  // namespace hpcwhisk::sim
