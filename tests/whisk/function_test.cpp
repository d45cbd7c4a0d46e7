#include "hpcwhisk/whisk/function.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk::whisk {
namespace {

TEST(FunctionRegistry, PutAndFind) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  EXPECT_NE(reg.find("a"), nullptr);
  EXPECT_EQ(reg.find("b"), nullptr);
  EXPECT_EQ(reg.at("a").name, "a");
  EXPECT_THROW((void)reg.at("b"), std::out_of_range);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FunctionRegistry, PutReplaces) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5), 128));
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5), 512));
  EXPECT_EQ(reg.at("a").memory_mb, 512);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FunctionRegistry, RejectsInvalidSpecs) {
  FunctionRegistry reg;
  FunctionSpec unnamed;
  unnamed.duration = [](sim::Rng&) { return sim::SimTime::millis(1); };
  EXPECT_THROW(reg.put(unnamed), std::invalid_argument);
  FunctionSpec no_model;
  no_model.name = "x";
  EXPECT_THROW(reg.put(no_model), std::invalid_argument);
}

TEST(FunctionRegistry, NamesListsAll) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  reg.put(fixed_duration_function("b", sim::SimTime::millis(5)));
  EXPECT_EQ(reg.names().size(), 2u);
}

TEST(FunctionRegistry, IdsAreDenseInRegistrationOrder) {
  FunctionRegistry reg;
  const FunctionId a = reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  const FunctionId c = reg.put(fixed_duration_function("c", sim::SimTime::millis(5)));
  const FunctionId b = reg.put(fixed_duration_function("b", sim::SimTime::millis(5)));
  EXPECT_EQ(a, FunctionId{0});
  EXPECT_EQ(c, FunctionId{1});
  EXPECT_EQ(b, FunctionId{2});
  EXPECT_EQ(reg.id("c"), c);
  EXPECT_EQ(reg.at(b).name, "b");
  EXPECT_EQ(reg.at("b").id, b) << "put stamps the id into the stored spec";
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "c", "b"}));
}

TEST(FunctionRegistry, RePutKeepsTheId) {
  FunctionRegistry reg;
  const FunctionId a = reg.put(fixed_duration_function("a", sim::SimTime::millis(5), 128));
  (void)reg.put(fixed_duration_function("b", sim::SimTime::millis(5)));
  EXPECT_EQ(reg.put(fixed_duration_function("a", sim::SimTime::millis(5), 512)), a);
  EXPECT_EQ(reg.at(a).memory_mb, 512);
  EXPECT_EQ(reg.at(a).id, a);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(FunctionRegistry, UnknownNameThrows) {
  FunctionRegistry reg;
  (void)reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  EXPECT_THROW((void)reg.id("b"), std::out_of_range);
}

TEST(FunctionRegistry, HashIsTheNameHashComputedAtRegistration) {
  FunctionRegistry reg;
  const FunctionId id =
      reg.put(fixed_duration_function("pagerank", sim::SimTime::millis(5)));
  EXPECT_EQ(reg.hash(id), function_hash("pagerank"));
}

TEST(FunctionHash, DeterministicAndSpread) {
  EXPECT_EQ(function_hash("pagerank"), function_hash("pagerank"));
  EXPECT_NE(function_hash("pagerank"), function_hash("bfs"));
  // Distinct names should spread over buckets reasonably.
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; ++i)
    buckets[function_hash("fn-" + std::to_string(i)) % 4]++;
  for (const int b : buckets) EXPECT_GT(b, 50);
}

TEST(FixedDurationFunction, AlwaysSameDuration) {
  const auto spec = fixed_duration_function("f", sim::SimTime::millis(42));
  sim::Rng rng{1};
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(spec.duration(rng), sim::SimTime::millis(42));
  EXPECT_TRUE(spec.interruptible);
}

}  // namespace
}  // namespace hpcwhisk::whisk
