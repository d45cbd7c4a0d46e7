#include "hpcwhisk/mq/topic.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hpcwhisk/sim/simulation.hpp"

namespace hpcwhisk::mq {
namespace {

using sim::SimTime;

Message make(std::uint64_t id, sim::FunctionId function = sim::FunctionId{0}) {
  Message m;
  m.id = id;
  m.function_id = function;
  return m;
}

TEST(Topic, FifoOrder) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 5; ++i) t.publish(make(i), SimTime::zero());
  const auto msgs = t.poll(5);
  ASSERT_EQ(msgs.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(msgs[i].id, i);
}

TEST(Topic, PollRespectsMaxCount) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 10; ++i) t.publish(make(i), SimTime::zero());
  EXPECT_EQ(t.poll(3).size(), 3u);
  EXPECT_EQ(t.size(), 7u);
}

TEST(Topic, PollOnEmptyReturnsNothing) {
  Topic t{"t"};
  EXPECT_TRUE(t.poll(4).empty());
  EXPECT_FALSE(t.poll_one().has_value());
}

TEST(Topic, PublishStampsFirstPublishOnce) {
  Topic t{"t"};
  t.publish(make(1), SimTime::seconds(10));
  auto m = t.poll_one();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->first_published, SimTime::seconds(10));
  EXPECT_EQ(m->delivery_count, 1u);

  // Re-publish (fast-lane reroute): first_published preserved, count bumped.
  t.publish(*m, SimTime::seconds(20));
  m = t.poll_one();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->first_published, SimTime::seconds(10));
  EXPECT_EQ(m->delivery_count, 2u);
}

TEST(Topic, DrainRemovesEverythingInOrder) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 4; ++i) t.publish(make(i), SimTime::zero());
  const auto drained = t.drain();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained.front().id, 0u);
  EXPECT_EQ(drained.back().id, 3u);
  EXPECT_TRUE(t.empty());
}

TEST(Topic, CountersTrackTraffic) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 6; ++i) t.publish(make(i), SimTime::zero());
  (void)t.poll(2);
  (void)t.poll_one();
  (void)t.drain();
  const auto c = t.counters();
  EXPECT_EQ(c.published, 6u);
  EXPECT_EQ(c.consumed, 3u);
  EXPECT_EQ(c.drained, 3u);
}

TEST(Topic, KeyAndNamePreserved) {
  Topic t{"invoker-3"};
  EXPECT_EQ(t.name(), "invoker-3");
  t.publish(make(9, sim::FunctionId{7}), SimTime::zero());
  const auto m = t.poll_one();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->function_id, sim::FunctionId{7});
}

TEST(TopicWaiter, FiresOnceOnTheEmptyToNonEmptyTransition) {
  Topic t{"t"};
  int woken = 0;
  Topic::Waiter w{[&] { ++woken; }};
  t.add_waiter(w);
  EXPECT_TRUE(w.armed());
  t.publish(make(1), SimTime::zero());
  EXPECT_EQ(woken, 1);
  EXPECT_FALSE(w.armed());
  t.publish(make(2), SimTime::zero());
  EXPECT_EQ(woken, 1) << "one-shot";
  // Armed on a non-empty topic: only the next transition fires it.
  t.add_waiter(w);
  t.publish_front(make(3), SimTime::zero());
  EXPECT_EQ(woken, 1);
  (void)t.drain();
  t.publish_front(make(4), SimTime::zero());
  EXPECT_EQ(woken, 2);
}

TEST(TopicWaiter, FiresInArmingOrderAndReArmsWaitForTheNextTransition) {
  Topic t{"t"};
  std::string order;
  Topic::Waiter b{[&] { order += 'b'; }};
  Topic::Waiter a{[&] {
    order += 'a';
    t.add_waiter(a);  // re-armed while firing
  }};
  t.add_waiter(a);
  t.add_waiter(b);
  t.publish(make(1), SimTime::zero());
  EXPECT_EQ(order, "ab");
  EXPECT_TRUE(a.armed());
  (void)t.drain();
  t.publish(make(2), SimTime::zero());
  EXPECT_EQ(order, "aba");
}

TEST(TopicWaiter, CancelAndDestructionDisarm) {
  Topic t{"t"};
  int woken = 0;
  Topic::Waiter kept{[&] { ++woken; }};
  {
    Topic::Waiter gone{[&] { woken += 100; }};
    t.add_waiter(gone);
    t.add_waiter(kept);
  }
  Topic::Waiter cancelled{[&] { woken += 10; }};
  t.add_waiter(cancelled);
  cancelled.cancel();
  cancelled.cancel();
  t.publish(make(1), SimTime::zero());
  EXPECT_EQ(woken, 1);
}

TEST(TopicWaiter, FaultDelayedDeliveryWakesAtDeliveryTime) {
  sim::Simulation simulation;
  Topic t{"t"};
  t.set_fault_filter(
      [](const Message&) {
        Topic::FaultAction a;
        a.delay = SimTime::seconds(2);
        return a;
      },
      &simulation);
  SimTime woke_at = SimTime::max();
  Topic::Waiter w{[&] { woke_at = simulation.now(); }};
  t.add_waiter(w);
  t.publish(make(1), simulation.now());
  EXPECT_TRUE(w.armed());
  simulation.run();
  EXPECT_EQ(woke_at, SimTime::seconds(2));
}

}  // namespace
}  // namespace hpcwhisk::mq
