// bench_diff: the CI regression gate over BENCH_*.json reports.
//
//   bench_diff [--out verdict.json] BASELINE.json CANDIDATE.json
//   bench_diff --self-test
//
// Compares a candidate report (a fresh bench run) against a committed
// baseline under the built-in per-metric direction/threshold rules
// (tools/bench_diff_core.hpp), prints a human summary, optionally writes
// the machine-readable verdict JSON, and exits:
//   0  pass — no gated metric regressed
//   1  fail — at least one regression (each listed on stderr)
//   2  refused — schema_version/bench mismatch, unreadable or malformed
//      input (a cross-schema diff is meaningless, not a pass)
//
// --self-test exercises the gate against in-memory reports with an
// injected regression and must exit nonzero-free: CI runs it before
// trusting any verdict.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_diff_core.hpp"

using namespace hpcwhisk::benchdiff;

namespace {

bool parse_file(const std::string& path, JsonValue& out, std::string& err) {
  std::ifstream is{path};
  if (!is) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  JsonParser parser{text};
  if (!parser.parse(out)) {
    err = path + ": " + parser.error();
    return false;
  }
  return true;
}

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAILED: " << what << "\n";
    }
  };

  // Parser round-trip over every construct the reports use.
  {
    JsonValue doc;
    JsonParser p{R"({"a": -1.5e3, "b": [true, null, "x\"y"], "c": {"d": 0}})"};
    expect(p.parse(doc), "parse mixed document");
    std::map<std::string, JsonValue> flat;
    flatten(doc, "", flat);
    expect(flat.at("a").number == -1500.0, "number with exponent");
    expect(flat.at("b[0]").boolean, "bool in array");
    expect(flat.at("b[1]").kind == JsonValue::Kind::kNull, "null in array");
    expect(flat.at("b[2]").string == "x\"y", "escaped quote");
    expect(flat.at("c.d").number == 0, "nested object path");
  }
  {
    JsonValue doc;
    JsonParser bad{R"({"a": 1,})"};
    expect(!bad.parse(doc), "reject trailing comma garbage");
    JsonParser trail{R"({"a": 1} x)"};
    expect(!trail.parse(doc), "reject trailing characters");
  }

  // Glob semantics used by the rule table.
  expect(glob_match("modes.*.p95_ms", "modes.hash-probing.p95_ms"),
         "glob mid-segment");
  expect(glob_match("experiments[*].events", "experiments[12].events"),
         "glob array index");
  expect(!glob_match("modes.*.p95_ms", "modes.hash-probing.p50_ms"),
         "glob non-match");

  const char* base_text = R"({
    "schema_version": 2, "bench": "obs_report", "quick": true, "seed": 1,
    "hw_threads": 1, "traced_overhead": 0.02, "trace_dropped": 0,
    "untraced_run_s": 1.0, "decision_log_hash": "feed",
    "decision_log_bytes": 100, "decision_logs_identical": true,
    "reroute_across_invokers": true, "perfetto_valid": true,
    "harvest": {"efficiency": 0.95}})";
  JsonValue base;
  {
    JsonParser p{base_text};
    expect(p.parse(base), "parse baseline fixture");
  }

  // Identical candidate passes.
  {
    JsonValue cand;
    JsonParser p{base_text};
    p.parse(cand);
    const DiffResult r = diff(base, cand);
    expect(r.verdict == Verdict::kPass && r.exit_code() == 0,
           "identical reports pass");
    expect(!r.checks.empty(), "rules matched the fixture");
  }

  // Injected regressions fail with exit 1.
  {
    JsonValue cand;
    JsonParser p{R"({
      "schema_version": 2, "bench": "obs_report", "quick": true, "seed": 1,
      "hw_threads": 1, "traced_overhead": 0.40, "trace_dropped": 7,
      "untraced_run_s": 3.0, "decision_log_hash": "beef",
      "decision_log_bytes": 100, "decision_logs_identical": false,
      "reroute_across_invokers": true, "perfetto_valid": true,
      "harvest": {"efficiency": 0.50}})"};
    expect(p.parse(cand), "parse regressed fixture");
    const DiffResult r = diff(base, cand);
    expect(r.verdict == Verdict::kFail && r.exit_code() == 1,
           "injected regression fails");
    expect(r.regressions >= 5, "overhead+dropped+run time+hash+flag all caught");
  }

  // Tolerances absorb noise in the right direction only.
  {
    JsonValue cand;
    JsonParser p{R"({
      "schema_version": 2, "bench": "obs_report", "quick": true, "seed": 1,
      "hw_threads": 1, "traced_overhead": 0.09, "trace_dropped": 0,
      "untraced_run_s": 1.4, "decision_log_hash": "feed",
      "decision_log_bytes": 100, "decision_logs_identical": true,
      "reroute_across_invokers": true, "perfetto_valid": true,
      "harvest": {"efficiency": 0.91}})"};
    p.parse(cand);
    const DiffResult r = diff(base, cand);
    expect(r.verdict == Verdict::kPass, "within-tolerance drift passes");
  }

  // A gated metric vanishing from the candidate is a failure.
  {
    JsonValue cand;
    JsonParser p{R"({
      "schema_version": 2, "bench": "obs_report", "quick": true, "seed": 1,
      "hw_threads": 1, "trace_dropped": 0,
      "untraced_run_s": 1.0, "decision_log_hash": "feed",
      "decision_log_bytes": 100, "decision_logs_identical": true,
      "reroute_across_invokers": true, "perfetto_valid": true,
      "harvest": {"efficiency": 0.95}})"};
    p.parse(cand);
    const DiffResult r = diff(base, cand);
    expect(r.verdict == Verdict::kFail, "missing gated metric fails");
  }

  // Cross-schema and cross-bench diffs are refused with exit 2.
  {
    JsonValue cand;
    JsonParser p{R"({"schema_version": 1, "bench": "obs_report"})"};
    p.parse(cand);
    expect(diff(base, cand).exit_code() == 2, "cross-schema refused");
  }
  {
    JsonValue cand;
    JsonParser p{R"({"schema_version": 2, "bench": "perf_report"})"};
    p.parse(cand);
    expect(diff(base, cand).exit_code() == 2, "cross-bench refused");
  }
  {
    JsonValue naked;
    JsonParser p{R"({"events": 3})"};
    p.parse(naked);
    expect(diff(naked, base).exit_code() == 2, "headerless baseline refused");
  }

  // The verdict document itself parses back.
  {
    JsonValue cand;
    JsonParser p{base_text};
    p.parse(cand);
    const DiffResult r = diff(base, cand);
    std::ostringstream os;
    write_verdict(os, r, "a.json", "b.json");
    const std::string verdict_text = os.str();  // JsonParser keeps a view
    JsonValue doc;
    JsonParser back{verdict_text};
    expect(back.parse(doc), "verdict JSON parses");
    const JsonValue* v = doc.find("verdict");
    expect(v != nullptr && v->string == "pass", "verdict field");
  }

  if (failures == 0) std::cout << "bench_diff self-test: OK\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::cerr << "--out needs a path\n";
        return 2;
      }
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_diff [--out verdict.json] BASELINE.json "
                   "CANDIDATE.json\n       bench_diff --self-test\n";
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::cerr << "usage: bench_diff [--out verdict.json] BASELINE.json "
                 "CANDIDATE.json\n";
    return 2;
  }

  JsonValue baseline, candidate;
  std::string err;
  if (!parse_file(files[0], baseline, err) ||
      !parse_file(files[1], candidate, err)) {
    std::cerr << "bench_diff: " << err << "\n";
    return 2;
  }

  const DiffResult r = diff(baseline, candidate);
  if (!out_path.empty()) {
    std::ofstream os{out_path};
    write_verdict(os, r, files[0], files[1]);
  }

  if (r.verdict == Verdict::kSchemaMismatch) {
    std::cerr << "bench_diff: refused — " << r.mismatch << "\n";
    return r.exit_code();
  }
  std::size_t passed = 0;
  for (const Check& c : r.checks) {
    if (c.status == CheckStatus::kPass) {
      ++passed;
    } else {
      std::cerr << "  " << to_string(c.status) << " " << c.path
                << (c.detail.empty() ? "" : ": " + c.detail) << "\n";
    }
  }
  std::cout << "bench_diff " << r.bench << ": " << to_string(r.verdict) << " ("
            << passed << "/" << r.checks.size() << " checks"
            << (r.regressions > 0
                    ? ", " + std::to_string(r.regressions) + " regressions"
                    : std::string{})
            << ")\n";
  return r.exit_code();
}
