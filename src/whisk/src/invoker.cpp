#include "hpcwhisk/whisk/invoker.hpp"

#include <algorithm>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::whisk {

namespace {
runtime::RuntimeProfile make_profile(runtime::RuntimeKind kind) {
  return kind == runtime::RuntimeKind::kDocker
             ? runtime::RuntimeProfile::docker()
             : runtime::RuntimeProfile::singularity();
}
}  // namespace

Invoker::Invoker(sim::Simulation& simulation, mq::Broker& broker,
                 const FunctionRegistry& registry, Controller& controller,
                 Config config, sim::Rng rng)
    : sim_{simulation},
      broker_{broker},
      registry_{registry},
      controller_{controller},
      config_{config},
      rng_{rng},
      pool_{config.pool, make_profile(config.runtime_kind), rng.fork()} {
  HW_OBS_IF(config_.obs) {
    // Shared-by-name across invokers, so the counts are monotone across
    // pilot churn (a per-pilot pool counter dies with its pilot).
    obs::MetricsRegistry& m = config_.obs->metrics;
    h_exec_us_ = &m.histogram("whisk.invoker.exec_us");
    c_executed_ = &m.counter("whisk.invoker.executed");
    c_dropped_ = &m.counter("whisk.invoker.dropped_undeliverable");
    c_capacity_ = &m.counter("whisk.invoker.capacity_failures");
    c_interrupted_ = &m.counter("whisk.invoker.interrupted");
    c_cold_starts_ = &m.counter("whisk.invoker.cold_starts");
    c_warm_hits_ = &m.counter("whisk.invoker.warm_hits");
    c_prewarm_hits_ = &m.counter("whisk.invoker.prewarm_hits");
  }
}

Invoker::~Invoker() {
  // The owner (pilot) must have ended the lifecycle; be safe regardless.
  if (started_ && !dead_) {
    stop_loops();
    controller_.clear_direct_invoke(id_);
  }
}

void Invoker::start() {
  if (started_) throw std::logic_error("Invoker::start: already started");
  started_ = true;
  id_ = controller_.register_invoker();
  // Both handles resolved once here; every poll tick afterwards is
  // broker-free.
  own_topic_ = broker_.resolve(Controller::invoker_topic_name(id_)).get();
  fast_lane_ = &broker_.fast_lane();
  // Install the lease bypass seam. Only consulted when the controller
  // runs with leasing enabled; installing it unconditionally keeps the
  // invoker oblivious to the controller's lease config.
  controller_.set_direct_invoke(
      id_, Controller::DirectSeam{
               [this](const FunctionSpec& spec) {
                 return can_direct_invoke(spec);
               },
               [this](mq::Message msg) { direct_invoke(std::move(msg)); }});
  start_loops();
}

void Invoker::direct_invoke(mq::Message msg) {
  ++counters_.direct_invocations;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kInstant, "direct_invoke",
        obs::Track::kInvoker, id_, msg.id, sim_.now());
  }
  begin_execution(std::move(msg));
  // A hand-over that specialized a stem cell leaves the next grid tick
  // a refill to do, as the unparked loop would.
  if (!pool_.prewarm_full()) wake();
}

void Invoker::start_loops() {
  grid_ = sim_.start_grid(config_.poll_interval);
  ticking_ = true;
  arm_tick(grid_.origin + config_.poll_interval);
  controller_.start_heartbeats(id_);
}

void Invoker::arm_tick(sim::SimTime when) {
  tick_event_ = sim_.at_grid(grid_, when, [this] { tick(); });
}

sim::SimTime Invoker::grid_ceil(sim::SimTime t) const {
  const sim::SimTime p = config_.poll_interval;
  if (t <= grid_.origin) return grid_.origin;
  return grid_.origin +
         p * ((t - grid_.origin + p - sim::SimTime::micros(1)) / p);
}

void Invoker::tick() {
  tick_event_ = {};
  if (parked_) unpark();  // the reap tick of a parked invoker
  last_tick_ = sim_.now();
  poll();
  // poll() can end the lifecycle (a completion callback may kill us).
  if (!ticking_) return;
  if (idle()) {
    park();
  } else {
    arm_tick(sim_.now() + config_.poll_interval);
  }
}

bool Invoker::idle() const {
  return fast_lane_->approx_empty() && own_topic_->approx_empty() &&
         buffer_.empty() && pool_.prewarm_full();
}

void Invoker::park() {
  parked_ = true;
  own_topic_->add_waiter(own_waiter_);
  fast_lane_->add_waiter(fast_waiter_);
  const sim::SimTime reap_every = config_.pool.keep_alive.reap_interval;
  if (reap_every <= sim::SimTime::zero()) return;
  // The reap tick survives wakes; it moves only when a reap happened.
  const sim::SimTime due = std::max(sim_.now() + config_.poll_interval,
                                    grid_ceil(last_reap_ + reap_every));
  if (reap_event_.valid() && reap_due_ == due) return;
  sim_.cancel(reap_event_);
  reap_due_ = due;
  reap_event_ = sim_.at_grid(grid_, due, [this] {
    reap_event_ = {};
    // Awake at the due tick, the grid tick itself reaps.
    if (parked_) tick();
  });
}

void Invoker::unpark() {
  parked_ = false;
  own_waiter_.cancel();
  fast_waiter_.cancel();
}

void Invoker::wake() {
  if (!parked_) return;
  unpark();
  // The skipped loop's next tick; a tick that already ran at this very
  // instant (we parked in it) is not repeated.
  arm_tick(std::max(sim_.next_grid_firing(grid_),
                    last_tick_ + config_.poll_interval));
}

void Invoker::poll() {
  pool_.maintain_prewarm(sim_.now());
  const sim::SimTime reap_every = config_.pool.keep_alive.reap_interval;
  if (reap_every > sim::SimTime::zero() &&
      sim_.now() - last_reap_ >= reap_every) {
    last_reap_ = sim_.now();
    (void)pool_.reap_idle(sim_.now());
  }
  // Fast lane first (highest priority), then the invoker's own topic.
  // Both empty is decided by two relaxed atomic loads: no topic locks,
  // no allocation.
  mq::Topic& fast = *fast_lane_;
  const bool fast_has = !fast.approx_empty();
  const bool own_has = !own_topic_->approx_empty();
  if (!fast_has && !own_has) {
    dispatch_buffer();
    return;
  }
  std::size_t budget = config_.pull_batch;
  const std::size_t room =
      buffer_.size() >= config_.pull_batch * 4
          ? 0
          : config_.pull_batch * 4 - buffer_.size();
  budget = std::min(budget, room);
  if (budget == 0) {
    dispatch_buffer();
    return;
  }
  pull_scratch_.clear();
  const std::size_t from_fast =
      fast_has ? fast.poll_into(budget, pull_scratch_) : 0;
  if (from_fast < budget && own_has)
    (void)own_topic_->poll_into(budget - from_fast, pull_scratch_);
  for (std::size_t i = 0; i < pull_scratch_.size(); ++i) {
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "pull",
          obs::Track::kInvoker, id_, pull_scratch_[i].id, sim_.now(),
          /*arg0=*/i < from_fast ? 1.0 : 0.0);
    }
    buffer_.push_back(std::move(pull_scratch_[i]));
  }
  pull_scratch_.clear();
  dispatch_buffer();
}

void Invoker::dispatch_buffer() {
  while (!buffer_.empty() && running_.size() < config_.max_concurrent) {
    mq::Message msg = std::move(buffer_.front());
    buffer_.pop_front();
    begin_execution(std::move(msg));
  }
}

void Invoker::begin_execution(mq::Message msg) {
  if (!controller_.deliverable(msg.id)) {
    ++counters_.dropped_undeliverable;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "drop_undeliverable",
          obs::Track::kInvoker, id_, msg.id, sim_.now());
      c_dropped_->add();
    }
    return;
  }
  if (running_.count(msg.id) > 0) {
    // Duplicate delivery of work we are already executing (an mq
    // duplication fault, or a watchdog rescue racing our own thaw).
    ++counters_.dropped_undeliverable;
    HW_OBS_IF(config_.obs) { c_dropped_->add(); }
    return;
  }
  const FunctionSpec& spec = registry_.at(msg.key);
  const auto acquired =
      pool_.acquire(spec.name, spec.kind, spec.memory_mb, sim_.now());
  if (acquired.kind == runtime::AcquireResult::Kind::kRejected) {
    // Node-level container saturation: the invocation fails (the episode
    // of Sec. V-C where invokers hit the concurrent-container limit).
    ++counters_.capacity_failures;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "capacity_reject",
          obs::Track::kInvoker, id_, msg.id, sim_.now());
      c_capacity_->add();
    }
    controller_.activation_failed(msg.id);
    return;
  }

  const ActivationId act = msg.id;
  Exec exec;
  exec.msg = std::move(msg);
  exec.container = acquired.container;
  exec.cold = acquired.kind == runtime::AcquireResult::Kind::kCold;
  exec.phase = ExecPhase::kStarting;
  running_.emplace(act, std::move(exec));
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncBegin, "exec",
        obs::Track::kInvoker, id_, act, sim_.now(),
        /*arg0=*/running_.at(act).cold ? 1.0 : 0.0);
    switch (acquired.kind) {
      case runtime::AcquireResult::Kind::kWarm: c_warm_hits_->add(); break;
      case runtime::AcquireResult::Kind::kPrewarmed:
        c_prewarm_hits_->add();
        break;
      case runtime::AcquireResult::Kind::kCold: c_cold_starts_->add(); break;
      case runtime::AcquireResult::Kind::kRejected: break;
    }
  }
  schedule_exec_event(act, acquired.start_latency);
}

void Invoker::schedule_exec_event(ActivationId act, sim::SimTime delay) {
  Exec& e = running_.at(act);
  e.due = sim_.now() + delay;
  e.event = sim_.after(delay, [this, act] { on_exec_event(act); });
}

void Invoker::on_exec_event(ActivationId act) {
  auto it = running_.find(act);
  if (it == running_.end()) return;
  Exec& e = it->second;
  if (e.phase == ExecPhase::kStarting) {
    e.phase = ExecPhase::kRunning;
    pool_.mark_running(e.container, sim_.now());
    controller_.activation_started(act, id_, e.cold);

    const FunctionSpec& fn = registry_.at(e.msg.key);
    sim::SimTime duration = fn.duration(rng_);
    if (config_.cpu_dilation && pool_.busy_containers() > config_.cores) {
      const double factor = static_cast<double>(pool_.busy_containers()) /
                            static_cast<double>(config_.cores);
      duration = sim::SimTime::seconds(duration.to_seconds() * factor);
    }
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "exec_running",
          obs::Track::kInvoker, id_, act, sim_.now(),
          static_cast<double>(duration.ticks()), e.cold ? 1.0 : 0.0);
      h_exec_us_->observe(static_cast<double>(duration.ticks()));
    }
    schedule_exec_event(act, duration);
    return;
  }
  pool_.release(e.container, sim_.now());
  running_.erase(it);
  ++counters_.executed;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncEnd, "exec",
        obs::Track::kInvoker, id_, act, sim_.now(), /*arg0=*/1.0);
    c_executed_->add();
  }
  controller_.activation_completed(act);
  if (draining_) {
    finish_drain_if_idle();
  } else {
    dispatch_buffer();
  }
}

void Invoker::stall(sim::SimTime duration) {
  if (!started_ || dead_ || draining_ || stalled_) return;
  stalled_ = true;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kPilot, obs::Phase::kInstant, "stall", obs::Track::kInvoker,
        id_, id_, sim_.now(), duration.to_seconds(),
        static_cast<double>(running_.size()));
  }
  stop_loops();
  for (auto& [act, exec] : running_) {
    sim_.cancel(exec.event);
    exec.remaining = exec.due - sim_.now();
    if (exec.remaining < sim::SimTime::zero())
      exec.remaining = sim::SimTime::zero();
  }
  resume_event_ = sim_.after(duration, [this] { resume(); });
}

void Invoker::resume() {
  if (!stalled_ || dead_) return;
  stalled_ = false;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kPilot, obs::Phase::kInstant, "resume", obs::Track::kInvoker,
        id_, id_, sim_.now(), static_cast<double>(running_.size()));
  }
  sim_.cancel(resume_event_);
  // Deterministic thaw order: running_ is an unordered_map, so reschedule
  // by ascending activation id.
  std::vector<ActivationId> acts;
  acts.reserve(running_.size());
  for (const auto& [act, exec] : running_) acts.push_back(act);
  std::sort(acts.begin(), acts.end());
  for (const ActivationId act : acts)
    schedule_exec_event(act, running_.at(act).remaining);
  start_loops();
  // Announce liveness now rather than a heartbeat period later, so a
  // watchdog-flagged invoker is readmitted the moment it thaws.
  controller_.heartbeat(id_);
}

void Invoker::sigterm(std::function<void()> on_drained) {
  if (dead_) return;
  if (draining_) return;  // duplicate SIGTERM
  if (stalled_) return;   // frozen: the hand-off can't run; SIGKILL will land
  draining_ = true;
  on_drained_ = std::move(on_drained);

  if (!started_) {
    // SIGTERM during warm-up: nothing registered, nothing to hand off.
    dead_ = true;
    if (on_drained_) on_drained_();
    return;
  }

  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(obs::Cat::kPilot, obs::Phase::kBegin, "drain",
                              obs::Track::kInvoker, id_, id_, sim_.now(),
                              static_cast<double>(running_.size()),
                              static_cast<double>(buffer_.size()));
  }

  // A draining invoker pulls nothing more; its own fast-lane hand-off
  // below must not wake it.
  stop_ticking();

  // 1. Controller stops routing to us and rescues our unpulled backlog.
  controller_.begin_drain(id_);

  // 2. Pulled-but-not-started buffer goes to the fast lane.
  while (!buffer_.empty()) {
    controller_.requeue_to_fast_lane(std::move(buffer_.front()));
    buffer_.pop_front();
  }

  // 3. Interrupt running executions of interruptible functions.
  std::vector<ActivationId> to_interrupt;
  for (const auto& [act, exec] : running_) {
    const FunctionSpec& fn = registry_.at(exec.msg.key);
    if (fn.interruptible || exec.phase == ExecPhase::kStarting)
      to_interrupt.push_back(act);
  }
  for (const ActivationId act : to_interrupt) {
    auto it = running_.find(act);
    Exec& e = it->second;
    sim_.cancel(e.event);
    if (e.phase == ExecPhase::kRunning) {
      controller_.activation_interrupted(act);
      ++counters_.interrupted;
      HW_OBS_IF(config_.obs) { c_interrupted_->add(); }
    }
    HW_OBS_IF(config_.obs) {
      // Close the exec span as aborted (arg0=0) before the reroute event
      // so the causal chain reads exec -> interrupt -> fast_lane_reroute.
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kAsyncEnd, "exec",
          obs::Track::kInvoker, id_, act, sim_.now(), /*arg0=*/0.0);
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "interrupt",
          obs::Track::kInvoker, id_, act, sim_.now());
    }
    controller_.requeue_to_fast_lane(std::move(e.msg));
    pool_.remove(e.container);
    running_.erase(it);
  }

  finish_drain_if_idle();
}

void Invoker::finish_drain_if_idle() {
  if (!draining_ || dead_) return;
  if (!running_.empty()) return;  // non-interruptible work still going
  dead_ = true;
  HW_OBS_IF(config_.obs) {
    if (started_) {
      config_.obs->trace.record(obs::Cat::kPilot, obs::Phase::kEnd, "drain",
                                obs::Track::kInvoker, id_, id_, sim_.now());
    }
  }
  stop_loops();
  pool_.clear();
  controller_.deregister(id_);
  if (on_drained_) {
    auto cb = std::move(on_drained_);
    on_drained_ = nullptr;
    cb();
  }
}

void Invoker::hard_kill() {
  if (dead_) return;
  dead_ = true;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kPilot, obs::Phase::kInstant, "hard_kill",
        obs::Track::kInvoker, id_, id_, sim_.now(),
        static_cast<double>(running_.size()),
        static_cast<double>(buffer_.size()));
    // A SIGKILL mid-drain leaves the drain span open; close it so the
    // timeline shows where the hand-off was cut short.
    if (draining_ && started_) {
      config_.obs->trace.record(obs::Cat::kPilot, obs::Phase::kEnd, "drain",
                                obs::Track::kInvoker, id_, id_, sim_.now());
    }
  }
  stop_loops();
  sim_.cancel(resume_event_);
  for (auto& [act, exec] : running_) sim_.cancel(exec.event);
  running_.clear();
  buffer_.clear();
  pool_.clear();
  // No controller *protocol* interaction: the watchdog will notice the
  // silence (and revoke any leases then). Dropping the seam here is pure
  // memory safety — the callbacks captured `this`, and the pilot may
  // destroy a hard-killed invoker before the watchdog fires.
  if (started_) controller_.clear_direct_invoke(id_);
}

void Invoker::stop_ticking() {
  ticking_ = false;
  unpark();
  sim_.cancel(tick_event_);
  tick_event_ = {};
  sim_.cancel(reap_event_);
  reap_event_ = {};
}

void Invoker::stop_loops() {
  stop_ticking();
  controller_.stop_heartbeats(id_);
}

}  // namespace hpcwhisk::whisk
