// Micro-benchmarks of the substrates: message-broker throughput, the
// container pool's fast paths, the event queue, and SeBS kernel scaling.
// These are performance benches for the library itself, not paper
// reproductions.

#include <benchmark/benchmark.h>

#include <memory>

#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/runtime/container_pool.hpp"
#include "hpcwhisk/sebs/graph.hpp"
#include "hpcwhisk/sebs/kernels.hpp"
#include "hpcwhisk/sim/event_queue.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace {

using namespace hpcwhisk;

void BM_topic_publish_poll(benchmark::State& state) {
  mq::Broker broker;
  mq::Topic& topic = broker.topic("bench");
  std::uint64_t id = 0;
  for (auto _ : state) {
    mq::Message m;
    m.id = id++;
    topic.publish(std::move(m), sim::SimTime::zero());
    benchmark::DoNotOptimize(topic.poll_one());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_topic_publish_poll);

void BM_topic_batch_poll(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  mq::Broker broker;
  mq::Topic& topic = broker.topic("bench");
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      mq::Message m;
      m.id = i;
      topic.publish(std::move(m), sim::SimTime::zero());
    }
    benchmark::DoNotOptimize(topic.poll(batch));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_topic_batch_poll)->Arg(8)->Arg(64)->Arg(512);

/// The steady-state message hot path at production scale: one topic per
/// invoker on a 2,239-node cluster, handles resolved once at wiring time
/// (mq::TopicRef), publishes and poll_into through the cached pointer —
/// zero string hashing, zero broker locking, zero allocation per event
/// once the scratch vector has grown.
void BM_mq_publish_consume(benchmark::State& state) {
  constexpr std::size_t kTopics = 2239;
  mq::Broker broker;
  std::vector<mq::TopicRef> refs;
  refs.reserve(kTopics);
  for (std::size_t i = 0; i < kTopics; ++i)
    refs.push_back(broker.resolve("invoker-" + std::to_string(i)));
  std::vector<mq::Message> scratch;
  std::uint64_t id = 0;
  std::size_t cursor = 0;
  for (auto _ : state) {
    mq::Topic& topic = *refs[cursor];
    cursor = (cursor + 1) % kTopics;
    mq::Message m;
    m.id = id++;
    topic.publish(std::move(m), sim::SimTime::zero());
    scratch.clear();
    benchmark::DoNotOptimize(topic.poll_into(4, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_mq_publish_consume);

/// Schedule + cancel against a heap already holding 2,239 live events —
/// the queue depth a full-cluster production day sustains. Exercises
/// sift-up on insert and the tombstone/compaction machinery on cancel.
void BM_event_queue_schedule(benchmark::State& state) {
  constexpr std::int64_t kLive = 2239;
  sim::EventQueue queue;
  for (std::int64_t i = 0; i < kLive; ++i)
    queue.schedule(sim::SimTime::micros(1'000'000 + i), [] {});
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto id = queue.schedule(sim::SimTime::micros(t++ % 1'000'000), [] {});
    queue.cancel(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_event_queue_schedule);

/// Batched drain of same-deadline runs with 2,239 events in flight —
/// the shape Simulation::run() sees when many invokers share a poll
/// deadline. Items processed counts drained events, not iterations.
void BM_event_queue_pop_batch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kLive = 2239;
  // Background population parked far in the future: every pop_batch below
  // must drain exactly the same-deadline run this iteration scheduled.
  constexpr std::int64_t kFarFuture = std::int64_t{1} << 40;
  sim::EventQueue queue;
  for (std::int64_t i = 0; i < kLive; ++i)
    queue.schedule(sim::SimTime::micros(kFarFuture + i), [] {});
  std::vector<sim::EventQueue::Popped> out;
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    for (std::size_t i = 0; i < batch; ++i)
      queue.schedule(sim::SimTime::micros(t), [] {});
    std::size_t drained = 0;
    while (drained < batch) {
      out.clear();
      drained += queue.pop_batch(batch - drained, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_event_queue_pop_batch)->Arg(8)->Arg(64)->Arg(512);

void BM_event_queue_schedule_pop(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  for (auto _ : state) {
    queue.schedule(sim::SimTime::micros(t++), [] {});
    benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_event_queue_schedule_pop);

/// Prometheus-scale scheduler fixture: 2,239 nodes mostly occupied by
/// long-limit HPC jobs, a deep pending backlog (beyond backfill_depth)
/// and a tier-0 pilot queue, so every pass exercises the full scan,
/// reservation and pilot-placement machinery in steady state.
///
/// `tres` switches on per-TRES packing over the same job stream: HPC
/// jobs then take whole or half nodes and pilots quarter nodes, so the
/// pass packs partial nodes. The legacy stream draws no extra numbers.
struct SchedFixture {
  sim::Simulation simulation;
  std::unique_ptr<slurm::Slurmctld> ctld;

  explicit SchedFixture(bool tres = false) {
    slurm::Slurmctld::Config cfg;
    cfg.node_count = 2239;
    cfg.fidelity.tres_mode = tres;
    if (tres) cfg.fidelity.node_capacity = {8, 32000, 0};
    const slurm::TresVector half{4, 16000, 0};
    std::vector<slurm::Partition> partitions{
        {.name = "main", .priority_tier = 1},
        {.name = "pilot",
         .priority_tier = 0,
         .preempt_mode = slurm::PreemptMode::kCancel}};
    ctld = std::make_unique<slurm::Slurmctld>(simulation, cfg,
                                              std::move(partitions));
    sim::Rng rng{42};
    // Fill the cluster: jobs that never exit on their own, declared
    // limits 2-12 h. ~2100 nodes end up busy; the rest stay idle.
    for (int i = 0; i < 700; ++i) {
      slurm::JobSpec spec;
      spec.partition = "main";
      spec.num_nodes = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
      spec.time_limit = sim::SimTime::hours(rng.uniform_int(2, 12));
      if (tres && rng.bernoulli(0.5)) spec.tres_per_node = half;
      ctld->submit(std::move(spec));
    }
    simulation.run_until(sim::SimTime::minutes(10));
    // Pending backlog deeper than backfill_depth, too wide to start.
    for (int i = 0; i < 300; ++i) {
      slurm::JobSpec spec;
      spec.partition = "main";
      spec.num_nodes = static_cast<std::uint32_t>(rng.uniform_int(8, 16));
      spec.time_limit = sim::SimTime::hours(rng.uniform_int(1, 6));
      if (tres && rng.bernoulli(0.5)) spec.tres_per_node = half;
      ctld->submit(std::move(spec));
    }
    // A tier-0 pilot queue competing for the remaining idle nodes.
    for (int i = 0; i < 50; ++i) {
      slurm::JobSpec spec;
      spec.partition = "pilot";
      spec.num_nodes = 1;
      spec.time_limit = sim::SimTime::minutes(13);
      if (tres) spec.tres_per_node = {2, 8000, 0};
      ctld->submit(std::move(spec));
    }
    simulation.run_until(sim::SimTime::minutes(12));
  }
};

void BM_slurm_availability_snapshot(benchmark::State& state) {
  SchedFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ctld->availability_snapshot(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fx.ctld->node_count());
}
BENCHMARK(BM_slurm_availability_snapshot);

/// One scheduling pass; Arg(0) whole-node (legacy), Arg(1) TRES packing.
void BM_slurm_sched_pass(benchmark::State& state) {
  SchedFixture fx{state.range(0) != 0};
  for (auto _ : state) {
    fx.ctld->schedule_now();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_slurm_sched_pass)->Arg(0)->Arg(1);

void BM_container_pool_warm_path(benchmark::State& state) {
  runtime::ContainerPool::Config cfg;
  runtime::ContainerPool pool{cfg, runtime::RuntimeProfile::singularity(),
                              sim::Rng{1}};
  // Prime a warm container.
  const auto first = pool.acquire("fn", 256, sim::SimTime::zero());
  pool.mark_running(first.container, sim::SimTime::zero());
  pool.release(first.container, sim::SimTime::zero());
  sim::SimTime now = sim::SimTime::zero();
  for (auto _ : state) {
    now += sim::SimTime::millis(1);
    const auto r = pool.acquire("fn", 256, now);
    pool.mark_running(r.container, now);
    pool.release(r.container, now);
    benchmark::DoNotOptimize(r.container);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_container_pool_warm_path);

void BM_bfs_scaling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const sebs::Graph graph = sebs::make_uniform_graph(n, 8.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sebs::bfs(graph, 0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_bfs_scaling)->Range(1 << 12, 1 << 17)->Complexity(benchmark::oN);

void BM_pagerank_scaling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const sebs::Graph graph = sebs::make_preferential_graph(n, 6, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sebs::pagerank(graph, 0.85, 10));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_pagerank_scaling)->Range(1 << 12, 1 << 16)->Complexity(benchmark::oN);

void BM_mst_scaling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto edges = sebs::make_weighted_edges(n, 6.0, 1'000'000, 9);
  for (auto _ : state) {
    auto copy = edges;  // Kruskal sorts in place
    benchmark::DoNotOptimize(sebs::mst(n, std::move(copy)));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_mst_scaling)->Range(1 << 12, 1 << 16)->Complexity(benchmark::oNLogN);

}  // namespace

BENCHMARK_MAIN();
