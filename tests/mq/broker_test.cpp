#include "hpcwhisk/mq/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace hpcwhisk::mq {
namespace {

TEST(Broker, FastLaneExistsOnConstruction) {
  Broker b;
  EXPECT_EQ(b.fast_lane().name(), Broker::kFastLane);
  EXPECT_NE(b.find(Broker::kFastLane), nullptr);
}

TEST(Broker, TopicCreatesOnDemand) {
  Broker b;
  EXPECT_EQ(b.find("x"), nullptr);
  Topic& t = b.topic("x");
  EXPECT_EQ(&b.topic("x"), &t);  // same instance on second access
  EXPECT_EQ(b.find("x"), &t);
}

TEST(Broker, TopicPointersStable) {
  Broker b;
  Topic& first = b.topic("a");
  for (int i = 0; i < 100; ++i) {
    std::string name = "t";  // appended: `"t" + ...` trips GCC 12 -Wrestrict
    name += std::to_string(i);
    b.topic(name);
  }
  EXPECT_EQ(&b.topic("a"), &first);
}

TEST(Broker, TopicNamesListsAll) {
  Broker b;
  b.topic("a");
  b.topic("b");
  const auto names = b.topic_names();
  EXPECT_EQ(names.size(), 3u);  // a, b, fast-lane
  EXPECT_EQ(b.topic_count(), 3u);
}

TEST(Broker, ResolveReturnsStableHandle) {
  Broker b;
  TopicRef ref = b.resolve("queue");
  EXPECT_TRUE(static_cast<bool>(ref));
  EXPECT_TRUE(ref.id().valid());
  // The handle, the string API and find() all reach the same instance,
  // and the pointer survives arbitrary later topic creation.
  EXPECT_EQ(ref.get(), &b.topic("queue"));
  for (int i = 0; i < 100; ++i) b.topic("other" + std::to_string(i));
  EXPECT_EQ(b.resolve("queue").get(), ref.get());
  EXPECT_EQ(b.find("queue"), ref.get());
}

TEST(Broker, ByIdRoundTrips) {
  Broker b;
  const TopicRef a = b.resolve("a");
  const TopicRef c = b.resolve("c");
  EXPECT_EQ(b.by_id(a.id()), a.get());
  EXPECT_EQ(b.by_id(c.id()), c.get());
  EXPECT_EQ(b.by_id(a->id()), a.get());  // topic knows its own id
  EXPECT_EQ(b.by_id(TopicId{}), nullptr);  // invalid id resolves to null
}

TEST(Broker, TopicNamesCacheTracksCreation) {
  Broker b;
  b.topic("b");
  const auto first = b.topic_names();   // builds the sorted cache
  const auto again = b.topic_names();   // served from cache
  EXPECT_EQ(first, again);
  b.topic("a");                         // dirties the cache
  const auto after = b.topic_names();
  EXPECT_EQ(after.size(), first.size() + 1);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  EXPECT_TRUE(std::find(after.begin(), after.end(), "a") != after.end());
}

TEST(Topic, ApproxEmptyTracksQueue) {
  Broker b;
  Topic& t = b.topic("x");
  EXPECT_TRUE(t.approx_empty());
  Message m;
  m.id = 1;
  t.publish(std::move(m), sim::SimTime::zero());
  EXPECT_FALSE(t.approx_empty());  // precise when single-threaded
  (void)t.poll_one();
  EXPECT_TRUE(t.approx_empty());
}

TEST(Topic, PollIntoAppendsWithoutClearing) {
  Broker b;
  Topic& t = b.topic("x");
  for (std::uint64_t i = 0; i < 6; ++i) {
    Message m;
    m.id = i;
    t.publish(std::move(m), sim::SimTime::zero());
  }
  std::vector<Message> scratch;
  EXPECT_EQ(t.poll_into(4, scratch), 4u);
  EXPECT_EQ(t.poll_into(4, scratch), 2u);  // drains the remainder
  EXPECT_EQ(t.poll_into(4, scratch), 0u);  // empty fast path
  ASSERT_EQ(scratch.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(scratch[i].id, i);
}

TEST(Broker, ConcurrentPublishConsumeIsSafe) {
  Broker b;
  Topic& t = b.topic("shared");
  constexpr int kPerThread = 2000;
  constexpr int kThreads = 4;
  std::vector<std::thread> producers;
  for (int w = 0; w < kThreads; ++w) {
    producers.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i) {
        Message m;
        m.id = static_cast<std::uint64_t>(w) * kPerThread + i;
        t.publish(std::move(m), sim::SimTime::zero());
      }
    });
  }
  std::size_t consumed = 0;
  std::thread consumer{[&] {
    while (consumed < kPerThread * kThreads) {
      consumed += t.poll(64).size();
    }
  }};
  for (auto& p : producers) p.join();
  consumer.join();
  EXPECT_EQ(consumed, static_cast<std::size_t>(kPerThread * kThreads));
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace hpcwhisk::mq
