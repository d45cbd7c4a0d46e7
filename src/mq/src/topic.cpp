#include "hpcwhisk/mq/topic.hpp"

#include "hpcwhisk/sim/simulation.hpp"

namespace hpcwhisk::mq {

void Topic::Waiter::cancel() {
  if (topic_ == nullptr) return;
  std::lock_guard lock{topic_->mu_};
  topic_->unlink_locked(*this);
}

Topic::~Topic() {
  std::lock_guard lock{mu_};
  while (waiters_head_ != nullptr) unlink_locked(*waiters_head_);
}

void Topic::add_waiter(Waiter& w) {
  if (w.topic_ == this) return;
  w.cancel();
  std::lock_guard lock{mu_};
  w.topic_ = this;
  w.epoch_ = wake_epoch_;
  w.prev_ = waiters_tail_;
  w.next_ = nullptr;
  if (waiters_tail_ != nullptr) {
    waiters_tail_->next_ = &w;
  } else {
    waiters_head_ = &w;
  }
  waiters_tail_ = &w;
}

void Topic::unlink_locked(Waiter& w) {
  if (w.prev_ != nullptr) {
    w.prev_->next_ = w.next_;
  } else {
    waiters_head_ = w.next_;
  }
  if (w.next_ != nullptr) {
    w.next_->prev_ = w.prev_;
  } else {
    waiters_tail_ = w.prev_;
  }
  w.topic_ = nullptr;
  w.prev_ = w.next_ = nullptr;
}

void Topic::wake_waiters() {
  // Callbacks run unlocked and may cancel or arm any waiter; the epoch
  // stops the loop at waiters they armed.
  std::unique_lock lock{mu_};
  const std::uint64_t epoch = ++wake_epoch_;
  while (waiters_head_ != nullptr && waiters_head_->epoch_ < epoch) {
    Waiter& w = *waiters_head_;
    unlink_locked(w);
    lock.unlock();
    w.on_wake_();
    lock.lock();
  }
}

void Topic::publish(Message msg, sim::SimTime now) {
  FaultAction action;
  bool filtered = false;
  {
    std::lock_guard lock{mu_};
    if (fault_filter_) {
      action = fault_filter_(msg);
      filtered = true;
    }
  }
  if (!filtered) {
    deliver(std::move(msg), now);
    return;
  }
  if (action.drop) {
    std::lock_guard lock{mu_};
    ++counters_.fault_dropped;
    return;
  }
  const std::uint32_t copies = 1 + action.extra_copies;
  {
    std::lock_guard lock{mu_};
    counters_.fault_duplicated += action.extra_copies;
    if (action.delay > sim::SimTime::zero() && sim_ != nullptr)
      ++counters_.fault_delayed;
  }
  if (action.delay > sim::SimTime::zero() && sim_ != nullptr) {
    sim::Simulation* simulation = sim_;
    for (std::uint32_t i = 0; i < copies; ++i) {
      simulation->after(action.delay, [this, simulation, msg] {
        deliver(msg, simulation->now());
      });
    }
    return;
  }
  for (std::uint32_t i = 0; i < copies; ++i) deliver(msg, now);
}

void Topic::publish_front(Message msg, sim::SimTime now) {
  FaultAction action;
  bool filtered = false;
  {
    std::lock_guard lock{mu_};
    if (fault_filter_) {
      action = fault_filter_(msg);
      filtered = true;
    }
  }
  if (!filtered) {
    deliver_front(std::move(msg), now);
    return;
  }
  if (action.drop) {
    std::lock_guard lock{mu_};
    ++counters_.fault_dropped;
    return;
  }
  const std::uint32_t copies = 1 + action.extra_copies;
  {
    std::lock_guard lock{mu_};
    counters_.fault_duplicated += action.extra_copies;
    if (action.delay > sim::SimTime::zero() && sim_ != nullptr)
      ++counters_.fault_delayed;
  }
  if (action.delay > sim::SimTime::zero() && sim_ != nullptr) {
    // A delayed short-class message forfeits its head position: it joins
    // the tail when the delay fires, like any late arrival.
    sim::Simulation* simulation = sim_;
    for (std::uint32_t i = 0; i < copies; ++i) {
      simulation->after(action.delay, [this, simulation, msg] {
        deliver(msg, simulation->now());
      });
    }
    return;
  }
  for (std::uint32_t i = 0; i < copies; ++i) deliver_front(msg, now);
}

void Topic::deliver(Message msg, sim::SimTime now) {
  bool wake;
  {
    std::lock_guard lock{mu_};
    if (msg.delivery_count == 0) msg.first_published = now;
    ++msg.delivery_count;
    wake = queue_.empty() && waiters_head_ != nullptr;
    queue_.push_back(std::move(msg));
    approx_size_.store(queue_.size(), std::memory_order_relaxed);
    ++counters_.published;
  }
  if (wake) wake_waiters();
}

void Topic::deliver_front(Message msg, sim::SimTime now) {
  bool wake;
  {
    std::lock_guard lock{mu_};
    if (msg.delivery_count == 0) msg.first_published = now;
    ++msg.delivery_count;
    wake = queue_.empty() && waiters_head_ != nullptr;
    queue_.push_front(std::move(msg));
    approx_size_.store(queue_.size(), std::memory_order_relaxed);
    ++counters_.published;
    ++counters_.front_published;
  }
  if (wake) wake_waiters();
}

void Topic::set_fault_filter(FaultFilter filter, sim::Simulation* simulation) {
  std::lock_guard lock{mu_};
  fault_filter_ = std::move(filter);
  sim_ = simulation;
}

std::size_t Topic::poll_into(std::size_t max_count, std::vector<Message>& out) {
  if (approx_empty()) return 0;  // steady state: no lock, no alloc
  std::lock_guard lock{mu_};
  const std::size_t n = std::min(max_count, queue_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  approx_size_.store(queue_.size(), std::memory_order_relaxed);
  counters_.consumed += n;
  return n;
}

std::vector<Message> Topic::poll(std::size_t max_count) {
  std::vector<Message> out;
  (void)poll_into(max_count, out);
  return out;
}

std::optional<Message> Topic::poll_one() {
  if (approx_empty()) return std::nullopt;
  std::lock_guard lock{mu_};
  if (queue_.empty()) return std::nullopt;
  Message m = std::move(queue_.front());
  queue_.pop_front();
  approx_size_.store(queue_.size(), std::memory_order_relaxed);
  ++counters_.consumed;
  return m;
}

std::vector<Message> Topic::drain() {
  std::lock_guard lock{mu_};
  std::vector<Message> out{std::make_move_iterator(queue_.begin()),
                           std::make_move_iterator(queue_.end())};
  counters_.drained += out.size();
  queue_.clear();
  approx_size_.store(0, std::memory_order_relaxed);
  return out;
}

std::size_t Topic::size() const {
  std::lock_guard lock{mu_};
  return queue_.size();
}

Topic::Counters Topic::counters() const {
  std::lock_guard lock{mu_};
  return counters_;
}

}  // namespace hpcwhisk::mq
