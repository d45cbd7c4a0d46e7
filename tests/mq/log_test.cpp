#include "hpcwhisk/mq/log.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk::mq {
namespace {

using sim::SimTime;

Message make(std::uint64_t id) {
  Message m;
  m.id = id;
  return m;
}

TEST(Log, AppendAssignsMonotonicOffsets) {
  Log log{"l"};
  EXPECT_EQ(log.append(make(10), SimTime::zero()), 0u);
  EXPECT_EQ(log.append(make(11), SimTime::zero()), 1u);
  EXPECT_EQ(log.end_offset(), 2u);
  EXPECT_EQ(log.begin_offset(), 0u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(Log, ReadIsNonDestructive) {
  Log log{"l"};
  for (std::uint64_t i = 0; i < 5; ++i) log.append(make(i), SimTime::zero());
  const auto first = log.read(0, 3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].id, 0u);
  EXPECT_EQ(first[2].id, 2u);
  // Reading again returns the same messages.
  EXPECT_EQ(log.read(0, 3).size(), 3u);
  EXPECT_EQ(log.size(), 5u);
}

TEST(Log, GroupStartsAtEndByDefault) {
  Log log{"l"};
  log.append(make(1), SimTime::zero());
  log.create_group("g");
  EXPECT_EQ(log.poll("g", 10).size(), 0u);
  log.append(make(2), SimTime::zero());
  const auto msgs = log.poll("g", 10);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].id, 2u);
}

TEST(Log, GroupFromBeginningReplays) {
  Log log{"l"};
  for (std::uint64_t i = 0; i < 4; ++i) log.append(make(i), SimTime::zero());
  log.create_group("replay", /*from_beginning=*/true);
  EXPECT_EQ(log.poll("replay", 10).size(), 4u);
}

TEST(Log, PollWithoutCommitRedelivers) {
  Log log{"l"};
  log.create_group("g", true);
  log.append(make(1), SimTime::zero());
  EXPECT_EQ(log.poll("g", 10).size(), 1u);
  EXPECT_EQ(log.poll("g", 10).size(), 1u);  // at-least-once
  log.commit("g", 1);
  EXPECT_EQ(log.poll("g", 10).size(), 0u);
}

TEST(Log, IndependentGroups) {
  Log log{"l"};
  log.create_group("a", true);
  for (std::uint64_t i = 0; i < 3; ++i) log.append(make(i), SimTime::zero());
  log.create_group("b", true);
  log.commit("a", 3);
  EXPECT_EQ(log.lag("a"), 0u);
  EXPECT_EQ(log.lag("b"), 3u);
  EXPECT_EQ(log.poll("b", 10).size(), 3u);
}

TEST(Log, CommitValidation) {
  Log log{"l"};
  log.create_group("g", true);
  log.append(make(1), SimTime::zero());
  EXPECT_THROW(log.commit("g", 5), std::invalid_argument);  // beyond end
  log.commit("g", 1);
  EXPECT_THROW(log.commit("g", 0), std::invalid_argument);  // backwards
  log.commit("g", 0, /*allow_rewind=*/true);                // explicit rewind
  EXPECT_EQ(log.committed("g"), 0u);
  EXPECT_THROW(log.commit("nope", 0), std::out_of_range);
  EXPECT_THROW(log.poll("nope", 1), std::out_of_range);
  EXPECT_THROW((void)log.lag("nope"), std::out_of_range);
}

TEST(Log, TrimDiscardsAndClampsGroups) {
  Log log{"l"};
  log.create_group("g", true);
  for (std::uint64_t i = 0; i < 10; ++i) log.append(make(i), SimTime::zero());
  log.trim(6);
  EXPECT_EQ(log.begin_offset(), 6u);
  EXPECT_EQ(log.size(), 4u);
  // The group's position was below the floor: clamped up.
  EXPECT_EQ(log.committed("g"), 6u);
  const auto msgs = log.poll("g", 10);
  ASSERT_EQ(msgs.size(), 4u);
  EXPECT_EQ(msgs[0].id, 6u);
  // Reads below the floor skip forward.
  EXPECT_EQ(log.read(0, 2).size(), 2u);
  EXPECT_EQ(log.read(0, 2)[0].id, 6u);
}

TEST(Log, TrimBeyondEndEmptiesLog) {
  Log log{"l"};
  for (std::uint64_t i = 0; i < 3; ++i) log.append(make(i), SimTime::zero());
  log.trim(99);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.begin_offset(), 3u);
  EXPECT_EQ(log.end_offset(), 3u);
  // Appending continues from the preserved offset space.
  EXPECT_EQ(log.append(make(9), SimTime::zero()), 3u);
}

TEST(Log, CreateGroupIdempotent) {
  Log log{"l"};
  log.create_group("g", true);
  log.append(make(1), SimTime::zero());
  log.commit("g", 1);
  log.create_group("g", true);  // must not reset the committed offset
  EXPECT_EQ(log.committed("g"), 1u);
}

}  // namespace
}  // namespace hpcwhisk::mq
