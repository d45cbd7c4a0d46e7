// Unit contract of the bench regression gate (tools/bench_diff_core.hpp):
// JSON parsing/flattening, glob rule matching, direction/threshold
// comparisons, and the schema refusal path. The CLI's --self-test covers
// the same core end-to-end; these tests pin the pieces individually.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "bench_diff_core.hpp"

namespace hpcwhisk::benchdiff {
namespace {

JsonValue parse_or_die(const std::string& text) {
  JsonValue v;
  JsonParser p{text};
  EXPECT_TRUE(p.parse(v)) << p.error() << " in: " << text;
  return v;
}

TEST(JsonParser, HandlesEveryReportConstruct) {
  const JsonValue v = parse_or_die(
      R"({"n": -2.5e-1, "big": 1e300, "s": "a\\b\"c", "t": true,)"
      R"( "nul": null, "arr": [1, [2]], "obj": {"k": "v"}, "empty": {}})");
  std::map<std::string, JsonValue> flat;
  flatten(v, "", flat);
  EXPECT_DOUBLE_EQ(flat.at("n").number, -0.25);
  EXPECT_DOUBLE_EQ(flat.at("big").number, 1e300);
  EXPECT_EQ(flat.at("s").string, "a\\b\"c");
  EXPECT_TRUE(flat.at("t").boolean);
  EXPECT_EQ(flat.at("nul").kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(flat.at("arr[0]").number, 1.0);
  EXPECT_DOUBLE_EQ(flat.at("arr[1][0]").number, 2.0);
  EXPECT_EQ(flat.at("obj.k").string, "v");
  // Empty containers flatten to nothing — no phantom paths.
  EXPECT_EQ(flat.count("empty"), 0u);
}

TEST(JsonParser, RejectsMalformedInput) {
  for (const char* bad :
       {"{", "[1,", "{\"a\" 1}", "{\"a\": }", "tru", "{} {}", "\"unterminated"}) {
    JsonValue v;
    std::string text{bad};
    JsonParser p{text};
    EXPECT_FALSE(p.parse(v)) << bad;
    EXPECT_FALSE(p.error().empty()) << bad;
  }
}

TEST(GlobMatch, SegmentsAndIndices) {
  EXPECT_TRUE(glob_match("a.b", "a.b"));
  EXPECT_FALSE(glob_match("a.b", "a.c"));
  EXPECT_TRUE(glob_match("modes.*.p95_ms", "modes.sjf-affinity.p95_ms"));
  EXPECT_TRUE(glob_match("experiments[*].events", "experiments[3].events"));
  EXPECT_TRUE(glob_match("*", "anything[0].at.all"));
  EXPECT_FALSE(glob_match("legs[*].p95", "legs[0].p99"));
  EXPECT_TRUE(glob_match("a*c*e", "abcde"));
  EXPECT_FALSE(glob_match("a*z", "abc"));
}

std::string header(const std::string& bench, int schema = 2) {
  return R"({"schema_version": )" + std::to_string(schema) +
         R"(, "bench": ")" + bench + R"(", )";
}

TEST(Diff, DirectionsAndTolerances) {
  const std::vector<Rule> rules{
      {"t", "lat", Direction::kLowerBetter, 0.10, 0},
      {"t", "rate", Direction::kHigherBetter, 0, 5.0},
      {"t", "ok", Direction::kRequireTrue},
      {"t", "hash", Direction::kExact},
  };
  const JsonValue base = parse_or_die(
      header("t") + R"("lat": 100, "rate": 50, "ok": true, "hash": "aa"})");

  // Inside tolerance on every axis.
  {
    const JsonValue cand = parse_or_die(
        header("t") + R"("lat": 109, "rate": 45.5, "ok": true, "hash": "aa"})");
    const DiffResult r = diff(base, cand, rules);
    EXPECT_EQ(r.verdict, Verdict::kPass);
    EXPECT_EQ(r.regressions, 0u);
    EXPECT_EQ(r.checks.size(), 4u);
  }
  // Improvement in the "wrong" numeric direction is never a regression.
  {
    const JsonValue cand = parse_or_die(
        header("t") + R"("lat": 1, "rate": 500, "ok": true, "hash": "aa"})");
    EXPECT_EQ(diff(base, cand, rules).verdict, Verdict::kPass);
  }
  // Each axis fails independently past its threshold.
  {
    const JsonValue cand = parse_or_die(
        header("t") + R"("lat": 111, "rate": 44, "ok": false, "hash": "bb"})");
    const DiffResult r = diff(base, cand, rules);
    EXPECT_EQ(r.verdict, Verdict::kFail);
    EXPECT_EQ(r.regressions, 4u);
    EXPECT_EQ(r.exit_code(), 1);
  }
  // A vanished or type-changed metric is a failure, not a skip.
  {
    const JsonValue cand = parse_or_die(
        header("t") + R"("rate": 50, "ok": true, "hash": "aa", "lat": "n/a"})");
    const DiffResult r = diff(base, cand, rules);
    EXPECT_EQ(r.verdict, Verdict::kFail);
  }
}

TEST(Diff, RefusesCrossSchemaAndCrossBench) {
  const JsonValue base = parse_or_die(header("t") + R"("x": 1})");
  EXPECT_EQ(diff(base, parse_or_die(header("t", 3) + R"("x": 1})")).verdict,
            Verdict::kSchemaMismatch);
  EXPECT_EQ(diff(base, parse_or_die(header("u") + R"("x": 1})")).verdict,
            Verdict::kSchemaMismatch);
  EXPECT_EQ(diff(base, parse_or_die(R"({"x": 1})")).verdict,
            Verdict::kSchemaMismatch);
  EXPECT_EQ(diff(parse_or_die(R"({"x": 1})"), base).verdict,
            Verdict::kSchemaMismatch);
  EXPECT_EQ(diff(base, parse_or_die(header("u") + R"("x": 1})")).exit_code(),
            2);
}

TEST(Diff, GlobRulesFanOutOverBaselinePaths) {
  const std::vector<Rule> rules{
      {"t", "legs[*].p95", Direction::kLowerBetter, 0, 0},
  };
  const JsonValue base = parse_or_die(
      header("t") + R"("legs": [{"p95": 10}, {"p95": 20}, {"p95": 30}]})");
  const JsonValue cand = parse_or_die(
      header("t") + R"("legs": [{"p95": 10}, {"p95": 25}, {"p95": 30}]})");
  const DiffResult r = diff(base, cand, rules);
  EXPECT_EQ(r.checks.size(), 3u);
  EXPECT_EQ(r.regressions, 1u);
  EXPECT_EQ(r.checks[1].path, "legs[1].p95");
  EXPECT_EQ(r.checks[1].status, CheckStatus::kRegression);
}

TEST(Diff, GuardedRuleAppliesOnlyWhenBothReportsPassTheGuard) {
  const std::vector<Rule> rules{
      {"t", "speedup", Direction::kHigherBetter, 0.5, 0, "threads", 1},
  };
  const auto doc = [](int threads, const char* speedup) {
    return parse_or_die(header("t") + R"("threads": )" +
                        std::to_string(threads) + R"(, "speedup": )" +
                        speedup + "}");
  };
  // Multi-threaded on both sides: a halved-plus speedup fails.
  EXPECT_EQ(diff(doc(4, "2.6"), doc(4, "1.4"), rules).verdict, Verdict::kPass);
  const DiffResult slow = diff(doc(4, "2.6"), doc(4, "1.2"), rules);
  EXPECT_EQ(slow.verdict, Verdict::kFail);
  EXPECT_EQ(slow.checks.at(0).status, CheckStatus::kRegression);
  // A single-threaded side (speedup reported as null) skips the rule.
  for (const DiffResult& r : {diff(doc(1, "null"), doc(4, "2.6"), rules),
                              diff(doc(4, "2.6"), doc(1, "null"), rules)}) {
    EXPECT_EQ(r.verdict, Verdict::kPass);
    ASSERT_EQ(r.checks.size(), 1u);
    EXPECT_NE(r.checks[0].detail.find("skipped"), std::string::npos);
  }
}

TEST(Diff, PerfReportGatesCostPerRunNotPerEvent) {
  const auto report = [](double wall, int allocs, double speedup) {
    return parse_or_die(
        header("perf_report") + R"("hw_threads": 4, "alloc_probe": true, )" +
        R"("experiments": [{"name": "table2_fib", "wall_s": )" +
        std::to_string(wall) + R"(, "events": 26000, "events_per_sec": 1, )" +
        R"("allocs_in_window": )" + std::to_string(allocs) +
        R"(, "allocs_per_event": 9}], "sweep": {"outputs_identical": true, )" +
        R"("speedup": )" + std::to_string(speedup) + "}}");
  };
  const JsonValue base = report(0.10, 36000, 2.6);
  EXPECT_EQ(diff(base, report(0.14, 39000, 1.4)).verdict, Verdict::kPass);
  EXPECT_EQ(diff(base, report(0.16, 36000, 2.6)).regressions, 1u);
  EXPECT_EQ(diff(base, report(0.10, 40000, 2.6)).regressions, 1u);
  EXPECT_EQ(diff(base, report(0.10, 36000, 1.2)).regressions, 1u);
}

TEST(Diff, VerdictJsonRoundTrips) {
  const JsonValue base =
      parse_or_die(header("obs_report") + R"("traced_overhead": 0.01})");
  const JsonValue cand =
      parse_or_die(header("obs_report") + R"("traced_overhead": 0.9})");
  const DiffResult r = diff(base, cand);
  EXPECT_EQ(r.verdict, Verdict::kFail);
  std::ostringstream os;
  write_verdict(os, r, "base.json", "cand.json");
  const std::string text = os.str();
  const JsonValue doc = parse_or_die(text);
  ASSERT_NE(doc.find("verdict"), nullptr);
  EXPECT_EQ(doc.find("verdict")->string, "fail");
  EXPECT_EQ(doc.find("bench")->string, "obs_report");
  EXPECT_GE(doc.find("regressions")->number, 1.0);
}

}  // namespace
}  // namespace hpcwhisk::benchdiff
