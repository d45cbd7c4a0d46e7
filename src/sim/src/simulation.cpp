#include "hpcwhisk/sim/simulation.hpp"

#include <cstdio>
#include <utility>

namespace hpcwhisk::sim {

std::string SimTime::to_string() const {
  const bool neg = us_ < 0;
  std::int64_t us = neg ? -us_ : us_;
  const std::int64_t h = us / 3'600'000'000;
  us %= 3'600'000'000;
  const std::int64_t m = us / 60'000'000;
  us %= 60'000'000;
  const double s = static_cast<double>(us) / 1e6;
  char buf[64];
  if (h > 0) {
    std::snprintf(buf, sizeof buf, "%s%lldh%02lldm%04.1fs", neg ? "-" : "",
                  static_cast<long long>(h), static_cast<long long>(m), s);
  } else if (m > 0) {
    std::snprintf(buf, sizeof buf, "%s%lldm%04.1fs", neg ? "-" : "",
                  static_cast<long long>(m), s);
  } else {
    std::snprintf(buf, sizeof buf, "%s%.3fs", neg ? "-" : "", s);
  }
  return buf;
}

void PeriodicHandle::stop() {
  if (!st_ || st_->stopped) return;
  // Keep the state alive on the stack: clearing cb below may destroy the
  // last handle referencing it (user callbacks often capture their own
  // handle, forming a cycle state->cb->handle->state).
  const std::shared_ptr<detail::PeriodicState> st = st_;
  st->stopped = true;
  if (st->sim != nullptr) {
    // cancel() fails exactly when the tick already popped, i.e. we are
    // being stopped from inside the callback; fire_periodic() then owns
    // the release (the state must stay alive until cb() returns).
    if (st->sim->cancel(st->current)) {
      st->sim->release_periodic(st.get());
      st->cb = nullptr;
    }
  }
}

void Simulation::arm_periodic(detail::PeriodicState* st) {
  st->current = after(st->interval, [st] { st->sim->fire_periodic(st); });
}

void Simulation::fire_periodic(detail::PeriodicState* st) {
  st->cb();
  // The registry entry is guaranteed alive here: stop() only releases
  // when it managed to cancel the pending tick, which it cannot while
  // that tick is executing.
  if (!st->stopped) {
    arm_periodic(st);
  } else {
    st->cb = nullptr;  // safe: cb() has returned; breaks handle cycles
    release_periodic(st);
  }
}

Simulation::~Simulation() {
  // Series still armed at teardown: their callbacks routinely capture
  // their own handle (state->cb->handle->state); break the cycle so the
  // registry drop actually frees them.
  for (const auto& st : periodics_) st->cb = nullptr;
}

void Simulation::release_periodic(const detail::PeriodicState* st) {
  for (auto& owned : periodics_) {
    if (owned.get() == st) {
      owned = std::move(periodics_.back());
      periodics_.pop_back();
      return;
    }
  }
}

PeriodicHandle Simulation::every(SimTime interval, Callback cb) {
  if (interval <= SimTime::zero())
    throw std::invalid_argument("Simulation::every: non-positive interval");
  auto st = std::make_shared<detail::PeriodicState>();
  st->sim = this;
  st->interval = interval;
  st->cb = std::move(cb);
  periodics_.push_back(st);
  arm_periodic(st.get());
  return PeriodicHandle{std::move(st)};
}

void Simulation::run_until(SimTime until) {
  // Single-pass batched dispatch: pop_due merges the staged same-deadline
  // run with the heap and claims in one call (no separate next_time()
  // peek per event). The explicit reset after the call keeps capture
  // destruction at the same point the old per-iteration Popped gave it.
  EventQueue::Popped p;
  while (queue_.pop_due(until, p)) {
    now_ = p.when;
    scheduled_at_ = p.scheduled_at;
    rank_ = p.rank;
    ++executed_;
    p.cb();
    p.cb.reset();
  }
  if (now_ < until) now_ = until;
  scheduled_at_ = now_;
  rank_ = 0;
}

void Simulation::run() {
  while (step()) {
  }
}

bool Simulation::step() {
  EventQueue::Popped p;
  if (!queue_.pop_due(SimTime::max(), p)) return false;
  now_ = p.when;
  scheduled_at_ = p.scheduled_at;
  rank_ = p.rank;
  ++executed_;
  p.cb();
  scheduled_at_ = now_;
  rank_ = 0;
  return true;
}

void Simulation::settle_to(SimTime t) {
  if (t < now_) throw std::invalid_argument("Simulation::settle_to: time in the past");
  if (!queue_.empty() && queue_.next_time() < t)
    throw std::logic_error("Simulation::settle_to: pending earlier events");
  now_ = t;
  scheduled_at_ = t;
  rank_ = 0;
}

Simulation::Grid Simulation::start_grid(SimTime interval) {
  if (interval <= SimTime::zero())
    throw std::invalid_argument("Simulation::start_grid: non-positive interval");
  // Rank blocks are 2^20 wide: a block holds one instant's front births.
  constexpr std::int64_t kBlock = std::int64_t{1} << 20;
  Grid grid{now_, interval, 0};
  if (scheduled_at_ <= now_ - interval) {
    if (front_block_at_ != now_) {
      --front_block_;
      front_next_ = 0;
      front_block_at_ = now_;
    }
    grid.rank = front_block_ * kBlock + front_next_++;
  } else {
    grid.rank = ++back_next_ * kBlock;
  }
  return grid;
}

SimTime Simulation::next_grid_firing(const Grid& grid) const {
  if (now_ <= grid.origin) return grid.origin + grid.interval;
  const SimTime t =
      grid.origin + grid.interval * ((now_ - grid.origin) / grid.interval);
  if (t < now_) return t + grid.interval;
  // The firing due now sorts (now - interval, rank) against the current
  // event's (scheduled_at, rank); a full tie counts as not yet run.
  const SimTime armed = now_ - grid.interval;
  const bool ran = armed < scheduled_at_ ||
                   (armed == scheduled_at_ && grid.rank < rank_);
  return ran ? t + grid.interval : t;
}

}  // namespace hpcwhisk::sim
