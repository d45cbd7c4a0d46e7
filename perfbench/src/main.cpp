// perfbench: the simulator's benchmark binary. One process runs one
// workload at one seed:
//
//   perfbench --workload <fib_day|serve_hot|tres_mix|fed4> --seed <n>
//             --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--plant <defect>] [--spans-out <path>]
//
// A run builds the worlds of the workload's instances (seeds derived
// from --seed) pass after pass, timing the set-up, and simulates each
// kept world's burn-in once. It then simulates each instance's measured
// window in a forked child, round after round, until --seconds of host
// time have passed (at least three rounds): every repeat starts from the
// same burned-in state. The first child of each instance checks
// its run for correctness and sends back the simulated outcomes; later
// ones must reproduce its decision digest. With --trace 1 one more run
// of the first instance follows in-process with spans and the obs plane
// on, and the per-layer metrics replace the end-to-end ones. The last
// stdout line is the JSON result; the exit code is 0 only if every check
// passed.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  Scale scale{Scale::kFull};
  Plant plant{Plant::kNone};
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--scale full|tiny] [--plant <defect>]"
               " [--spans-out <path>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny") usage("bad --scale");
        a.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
      } else if (flag == "--plant") {
        a.plant = plant_from_string(value);
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::invalid_argument& e) {
      usage(std::string{"bad value for "} + flag + ": " + e.what());
    } catch (const std::out_of_range&) {
      usage("value out of range for " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(a.seconds >= 0)) usage("--seconds must be >= 0");
  return a;
}

/// Non-empty when this binary must not be timed: not optimized, or
/// built with sanitizers or coverage instrumentation.
std::string unfit_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG not defined)";
#endif
#if PERFBENCH_SANITIZE || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return "built with sanitizers";
#endif
#if PERFBENCH_COVERAGE
  return "built with coverage instrumentation";
#endif
  return {};
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s = brand;
    const auto first = s.find_first_not_of(' ');
    if (first != std::string::npos) return s.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

void wait_for(pid_t pid, int* status) {
  while (waitpid(pid, status, 0) < 0 && errno == EINTR) {
  }
}

/// Timed passes of building every instance's world: at least the
/// minimum, then more while the set-up has taken under kSetupSeconds.
constexpr std::uint32_t kMinSetupPasses = 5;
constexpr std::uint32_t kMaxSetupPasses = 200;
constexpr double kSetupSeconds = 0.25;
/// Rounds of forked window runs per process, at least; a traced run
/// makes only these.
constexpr std::uint32_t kMinRounds = 3;

/// Host time only ever adds to a deterministic run's cost, so the
/// fastest repeat of an instance's window is its estimate (0 if none
/// ended normally; the run has failed then).
double fastest(const std::vector<double>& repeats_s) {
  return repeats_s.empty()
             ? 0.0
             : *std::min_element(repeats_s.begin(), repeats_s.end());
}

struct Instance {
  std::uint64_t seed{0};
  std::unique_ptr<World> world;
  double burn_in_s{0};
  std::uint64_t digest{0};
  std::vector<double> window_s;  ///< host seconds, one per forked run
};

/// What a forked window run sends back.
struct WindowResult {
  double window_s{0};
  std::uint64_t digest{0};
  std::uint64_t violations{0};
  Tally tally;  ///< filled by the checking run only
};

/// Flat byte encoding of a WindowResult for the pipe from the child.
class Wire {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void put(const std::vector<double>& v) {
    put(static_cast<std::uint64_t>(v.size()));
    bytes_.append(reinterpret_cast<const char*>(v.data()),
                  v.size() * sizeof(double));
  }
  template <typename T>
  bool get(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - pos_ < sizeof v) return false;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return true;
  }
  bool get(std::vector<double>& v) {
    std::uint64_t n = 0;
    if (!get(n) || (bytes_.size() - pos_) / sizeof(double) < n) return false;
    v.resize(n);
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return true;
  }
  std::string& bytes() { return bytes_; }

 private:
  std::string bytes_;
  std::size_t pos_{0};
};

/// Applies `f` to every field of `r` in wire order, stopping at the
/// first false.
template <typename Fn>
bool each_field(WindowResult& r, Fn&& f) {
  Tally& t = r.tally;
  return f(r.window_s) && f(r.digest) && f(r.violations) &&
         f(t.pilot_samples) && f(t.available_samples) && f(t.harvested_s) &&
         f(t.occupied_s) && f(t.hpc_waits_s) && f(t.latencies_s) &&
         f(t.cold) && f(t.issued) && f(t.gateway_calls) && f(t.cloud_calls);
}

void merge(Tally& into, const Tally& from) {
  into.pilot_samples += from.pilot_samples;
  into.available_samples += from.available_samples;
  into.harvested_s += from.harvested_s;
  into.occupied_s += from.occupied_s;
  into.hpc_waits_s.insert(into.hpc_waits_s.end(), from.hpc_waits_s.begin(),
                          from.hpc_waits_s.end());
  into.latencies_s.insert(into.latencies_s.end(), from.latencies_s.begin(),
                          from.latencies_s.end());
  into.cold += from.cold;
  into.issued += from.issued;
  into.gateway_calls += from.gateway_calls;
  into.cloud_calls += from.cloud_calls;
}

/// Prints one run's check lines; returns how many violations it found.
std::uint64_t print_checks(World& world, Plant plant) {
  const CheckResult r = run_checks(world, plant);
  for (const std::string& v : r.pilot_accounting) {
    std::cout << "KNOWN-DEFECT " << v << "\n";
  }
  for (std::size_t i = 0; i < r.violations.size() && i < 50; ++i) {
    std::cout << "FAIL " << r.violations[i] << "\n";
  }
  return r.violations.size();
}

/// Simulates the window of `world` (burned in) in a forked child, so the
/// parent keeps the burned-in state for the next repeat; the child's
/// memory starts as the parent's, page for page. With `checked` the
/// child also runs the checks and returns the instance's outcomes.
/// Empty if the child could not be run or did not end normally.
std::optional<WindowResult> window_in_child(World& world, bool checked,
                                            Plant plant) {
  std::cout.flush();
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      WindowResult r;
      r.window_s = world.run_window(nullptr);
      r.digest = decision_digest(world);
      if (checked) {
        world.add_to(r.tally);
        r.violations = print_checks(world, plant);
      }
      Wire w;
      each_field(r, [&w](const auto& v) {
        w.put(v);
        return true;
      });
      if (write_all(fds[1], w.bytes().data(), w.bytes().size())) code = 0;
    } catch (...) {
    }
    std::cout.flush();
    _exit(code);  // no destructors: the parent owns the world
  }
  close(fds[1]);
  Wire w;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      w.bytes().append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  wait_for(pid, &status);
  WindowResult r;
  const auto read_field = [&w](auto& v) { return w.get(v); };
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !each_field(r, read_field)) {
    return std::nullopt;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  WorkloadSpec spec;
  try {
    spec = workload_spec(args.workload, args.scale);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (const std::string why = unfit_build(); !why.empty()) {
    std::cerr << "perfbench: refusing to measure: " << why << "\n";
    return 3;
  }

  std::cout << "{\"env\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"HPCWHISK_OBS\": " << (PERFBENCH_OBS ? "true" : "false")
            << ", \"workload\": \"" << spec.name << "\", \"seed\": "
            << args.seed << ", \"instances\": " << spec.instances
            << ", \"scale\": \""
            << (args.scale == Scale::kTiny ? "tiny" : "full") << "\"}}\n";

  std::uint64_t violations = 0;
  std::uint64_t runs = 0, failed_runs = 0;
  const auto fail = [&](const std::string& why) {
    std::cout << "FAIL " << why << "\n";
    ++violations;
    ++failed_runs;
  };

  // Set-up: build every instance's world, pass after pass; the first
  // pass is untimed (the first build in a process faults its heap in),
  // `setup_s` is the median of the others, and the last pass's worlds
  // are the ones simulated.
  std::vector<Instance> instances(spec.instances);
  for (std::uint32_t k = 0; k < spec.instances; ++k) {
    instances[k].seed = instance_seed(args.seed, k);
  }
  std::vector<double> setup_passes_s;
  const std::int64_t setup_start = now_ns();
  for (std::uint32_t pass = 0;
       pass <= kMinSetupPasses ||
       (seconds_since(setup_start) < kSetupSeconds && pass <= kMaxSetupPasses);
       ++pass) {
    for (Instance& inst : instances) inst.world.reset();
    const std::int64_t t0 = now_ns();
    for (Instance& inst : instances) {
      inst.world = std::make_unique<World>(spec, inst.seed, false);
    }
    if (pass > 0) setup_passes_s.push_back(seconds_since(t0));
  }
  const double setup_s = median(setup_passes_s);
  std::cout << "set-up: median " << num(setup_s) << " s over "
            << setup_passes_s.size() << " passes" << std::endl;
  for (std::uint32_t k = 0; k < spec.instances; ++k) {
    Instance& inst = instances[k];
    inst.burn_in_s = inst.world->run_burn_in(nullptr);
    char line[160];
    std::snprintf(line, sizeof line, "instance %u: burn-in %.3f s, %llu events\n",
                  k, inst.burn_in_s,
                  static_cast<unsigned long long>(
                      inst.world->simulation().executed_events()));
    std::cout << line;
  }

  // Round after round, each instance's window once in a forked child.
  Tally tally;
  const std::int64_t measure_start = now_ns();
  double round_s = 0;
  for (std::uint32_t round = 0;
       round < kMinRounds ||
       (!args.trace && seconds_since(measure_start) + round_s <= args.seconds);
       ++round) {
    const std::int64_t round_start = now_ns();
    for (std::uint32_t k = 0; k < spec.instances; ++k) {
      Instance& inst = instances[k];
      const bool checked = round == 0;
      const std::optional<WindowResult> r =
          window_in_child(*inst.world, checked, args.plant);
      ++runs;
      if (!r) {
        fail("instance " + std::to_string(k) +
             ": the forked window run did not end normally");
        continue;
      }
      inst.window_s.push_back(r->window_s);
      if (checked) {
        inst.digest = r->digest;
        merge(tally, r->tally);
        violations += r->violations;
        if (r->violations > 0) ++failed_runs;
      } else if (r->digest != inst.digest) {
        fail("instance " + std::to_string(k) +
             ": decision digest differs between runs");
      }
      char line[160];
      std::snprintf(line, sizeof line,
                    "run %llu: instance %u, window %.3f s, digest %016llx\n",
                    static_cast<unsigned long long>(runs), k, r->window_s,
                    static_cast<unsigned long long>(r->digest));
      std::cout << line << std::flush;
    }
    round_s = seconds_since(round_start);
  }
  const double rss_mb = peak_rss_mb();
  const Outcomes outcomes = tally.outcomes();
  double wall_s = 0;
  for (const Instance& inst : instances) wall_s += fastest(inst.window_s);
  const std::uint64_t digest0 = instances[0].digest;
  for (Instance& inst : instances) inst.world.reset();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"idle_coverage", outcomes.idle_coverage, "share"},
        {"harvest_efficiency", outcomes.harvest_efficiency, "share"},
    };
    std::cout << "outcomes: hpc_wait_p50_s " << outcomes.hpc_wait_p50_s
              << ", hpc_wait_p95_s " << outcomes.hpc_wait_p95_s << " (n="
              << outcomes.hpc_jobs << "), faas_p50_s " << outcomes.faas_p50_s
              << ", faas_p99_s " << outcomes.faas_p99_s << " (n="
              << outcomes.faas_completed << "), failed calls "
              << outcomes.faas_failed << " of " << outcomes.faas_issued
              << ", cold_start_share " << outcomes.cold_start_share
              << ", cloud_offload_share " << outcomes.cloud_offload_share
              << "\n";
  } else {
    // The obs overhead compares like with like: one untraced and one
    // traced run of the first instance, both whole and in this process
    // (forked window runs have a different memory history).
    double untraced_s = 0;
    {
      World plain{spec, instances[0].seed, false};
      const World::HostTimes t = plain.run(nullptr);
      untraced_s = t.burn_in_s + t.window_s;
      ++runs;
      if (decision_digest(plain) != digest0) {
        fail("in-process run changed the decision digest");
      }
    }
    const std::int64_t t0 = now_ns();
    World world{spec, instances[0].seed, true};
    // One span per call, per 60-s slice and per probe, with headroom.
    const std::size_t slices =
        static_cast<std::size_t>(world.horizon().to_seconds() / 60.0) + 2;
    SpanRecorder spans{static_cast<std::uint32_t>(args.seed),
                       world.scheduled_calls() + slices + 4096};
    spans.add(SpanName::kSetup, t0, now_ns());
    const World::HostTimes host = world.run(&spans);
    ++runs;
    const std::uint64_t found = print_checks(world, args.plant);
    violations += found;
    if (found > 0) ++failed_runs;
    if (decision_digest(world) != digest0) {
      fail("traced run changed the decision digest");
    }
    metrics = layer_metrics(world, spans, host, untraced_s, outcomes);
    if (!args.spans_out.empty()) {
      std::ofstream out{args.spans_out};
      spans.write(out);
      if (!out) fail("could not write spans to " + args.spans_out);
    }
  }

  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  }
  // An operation is one simulated run; the calls inside it are outcomes
  // of the modelled system, reported among the metrics.
  std::ostringstream result;
  result << "{\"correct\": " << (violations == 0 ? "true" : "false")
         << ", \"attempted\": " << runs << ", \"failed\": " << failed_runs
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i > 0 ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
           << metrics[i].unit << "\"}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return violations == 0 ? 0 : 1;
}
