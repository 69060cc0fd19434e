// perfbench_driver: runs one seeded workload for a fixed time, checks its
// outputs, and prints its metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end tier, with --trace 1 the per-layer tier. A
// failed correctness check prints no metrics and exits 1. Run it from the
// repository root: the lattice gate reads the committed scenario goldens.
//
//   perfbench_driver --workload lattice|regulator|serve_burst
//                    --seed N --seconds S --trace 0|1
//                    [--spans FILE] [--commit SHA]
//   perfbench_driver --selftest --seed N
//
// setup_s is timed in child processes: the driver starts itself with
// --setup-only T (T = the parent's steady clock at spawn, in ns), which
// builds the workload's context, prints "ready <seconds since T>" and exits.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "subsidy/numerics/simd.hpp"
#include "subsidy/runtime/topology.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kEndToEnd{"setup_s",        "run_s",          "results_per_s",
                                         "latency_p50_ms", "latency_p99_ms", "cpu_s",
                                         "peak_rss_mb"};

const std::vector<std::string> kPerLayer{
    "numerics.exp_ns_per_lane",
    "core.kernel.compile_us",
    "core.kernel.gap_ns_per_node",
    "core.utilization.plane_ns_per_node",
    "core.utilization.single_ns",
    "core.nash.us_per_solve_w1",
    "core.nash.us_per_solve_w8",
    "core.nash.candidates_per_solve",
    "core.nash.passes_per_solve",
    "core.nash.columns_per_pass",
    "core.nash.columns_per_pass_w8",
    "core.nash.fallback_frac",
    "core.policy.ms_per_cap",
    "core.duopoly.ms_per_game",
    "core.duopoly.rounds_per_game",
    "core.duopoly.subsidy_solve_us",
    "runtime.sweep.ms_per_lattice",
    "runtime.sweep.cpu_over_wall",
    "runtime.sweep.speedup_vs_jobs1",
    "sim.ns_per_decision",
    "sim.ms_per_tick",
    "server.parse_us",
    "server.serialize_us",
    "server.sojourn_ms",
    "server.requests_per_batch",
    "server.coalesced_frac",
    "server.exact_hit_frac",
    "server.evictions",
    "trace.overhead_frac",
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e308 : -1e308;  // +inf = failed request
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Throughput of available_cpu_count() busy threads over one busy thread.
/// Every thread spins once first: idle virtual CPUs take a while to be
/// scheduled again, which a cold measurement would report as missing cores.
double effective_cores(std::size_t cpus) {
  const auto spin = [](double* out) {
    double x = 1.0;
    for (int i = 0; i < 20000000; ++i) x = x * 1.0000001 + 1e-9;
    *out = x;
  };
  std::vector<double> sink(cpus);
  const auto all_threads = [&] {
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < cpus; ++t) threads.emplace_back(spin, &sink[t]);
    for (std::thread& thread : threads) thread.join();
    return seconds_between(start, Clock::now());
  };
  (void)all_threads();
  const auto start = Clock::now();
  spin(sink.data());
  const double one = seconds_between(start, Clock::now());
  return static_cast<double>(cpus) * one / all_threads();
}

std::string machine_json(const std::string& commit) {
  namespace simd = subsidy::num::simd;
  namespace runtime = subsidy::runtime;
  const std::size_t cpus = runtime::available_cpu_count();
  return "{\"cpu_model\":" + json_string(cpu_model()) +
         ",\"simd_backend\":" + json_string(simd::backend()) +
         ",\"simd_width_cap\":" + std::to_string(simd::width_cap()) +
         ",\"cpus\":" + std::to_string(cpus) + ",\"numa_domains\":" +
         std::to_string(
             runtime::effective_topology(runtime::default_numa_config()).num_domains()) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"commit\":" + json_string(commit) +
         ",\"effective_cores\":" + json_number(effective_cores(cpus)) + "}";
}

/// Cold set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 31;

/// Times one cold set-up: from starting a fresh driver process with
/// --setup-only to the moment its context is built, i.e. process start,
/// input generation, kernel compiles and engine start with every cache
/// empty. The child measures the end itself (the steady clock is shared by
/// all processes), so the parent's own wake-up is not counted. Waits for
/// the child to exit.
double cold_setup(const Options& options) {
  int ready[2];
  if (pipe2(ready, O_CLOEXEC) != 0) throw std::runtime_error("set-up probe: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, ready[1], STDOUT_FILENO);
  const auto start = Clock::now();
  std::vector<std::string> args{
      "perfbench_driver", "--setup-only",
      std::to_string(std::chrono::nanoseconds(start.time_since_epoch()).count()),
      "--workload",       options.workload,
      "--seed",           std::to_string(options.seed)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t child = 0;
  const int spawned =
      posix_spawn(&child, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  close(ready[1]);
  posix_spawn_file_actions_destroy(&actions);
  char line[64] = {};
  double seconds = -1.0;
  if (spawned == 0 && read(ready[0], line, sizeof line - 1) > 0) {
    (void)std::sscanf(line, "ready %lf", &seconds);
  }
  close(ready[0]);
  int status = 0;
  if (spawned == 0) waitpid(child, &status, 0);
  if (seconds <= 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe process failed");
  }
  return seconds;
}

int usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem
            << "\nusage: perfbench_driver --workload W --seed N --seconds S --trace 0|1"
               " [--spans FILE] [--commit SHA]\n"
               "       perfbench_driver --selftest --seed N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      selftest = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage("bad argument '" + key + "'");
    }
  }

  Options options;
  try {
    options.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    options.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    options.trace = args.count("trace") && args["trace"] == "1";
    if (args.count("setup-only")) {
      options.setup_only = true;
      options.setup_start =
          Clock::time_point(std::chrono::nanoseconds(std::stoll(args["setup-only"])));
    }
  } catch (const std::exception&) {
    return usage("--seed, --seconds, --trace and --setup-only take numbers");
  }
  if (selftest) {
    const std::vector<std::string> failures = generator_selftest(options.seed);
    for (const std::string& failure : failures) std::cerr << "FAIL: " << failure << "\n";
    std::cout << "generator selftest: " << (failures.empty() ? "PASS" : "FAIL") << "\n";
    return failures.empty() ? 0 : 1;
  }
  options.workload = args["workload"];
  options.spans_out = args["spans"];
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  if (options.workload != "lattice" && options.workload != "regulator" &&
      options.workload != "serve_burst") {
    return usage("unknown workload '" + options.workload + "'");
  }

  Outcome outcome;
  std::vector<double> setups;
  const bool time_setups = !options.setup_only && !options.trace;
  if (time_setups) {
    // Spread over the timed phase, between passes, so the median is not
    // taken from a single moment of the machine.
    options.between_passes = [&](double done) {
      const double due = static_cast<double>(kSetups) * std::min(done, 1.0);
      while (static_cast<double>(setups.size()) < due) setups.push_back(cold_setup(options));
    };
  }
  try {
    if (options.workload == "lattice") {
      outcome = run_lattice(options);
    } else if (options.workload == "regulator") {
      outcome = run_regulator(options);
    } else {
      outcome = run_serve(options);
    }
    while (time_setups && setups.size() < kSetups) setups.push_back(cold_setup(options));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (options.setup_only) return 0;
  if (!setups.empty()) outcome.metrics.push_back({"setup_s", median(setups), "s"});

  const std::vector<std::string>& expected = options.trace ? kPerLayer : kEndToEnd;
  std::map<std::string, Metric> by_name;
  for (const Metric& metric : outcome.metrics) by_name[metric.name] = metric;
  for (const std::string& name : expected) {
    if (!by_name.count(name)) outcome.errors.push_back("no value for metric " + name);
  }
  if (!outcome.errors.empty()) {
    for (const std::string& error : outcome.errors) std::cerr << "FAILED: " << error << "\n";
    return 1;
  }

  std::cout << "perfbench " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace << "\n";
  std::cout << "machine: " << machine_json(args["commit"]) << "\n";
  for (const std::string& note : outcome.notes) std::cout << "  " << note << "\n";
  const double attempted = static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  std::cout << "  failed_frac = " << json_number(static_cast<double>(outcome.failed) / attempted)
            << " ratio\n";
  std::string metrics;
  for (const std::string& name : expected) {
    const Metric& metric = by_name[name];
    std::cout << "  " << name << " = " << json_number(metric.value) << " " << metric.unit << "\n";
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) + ": {\"value\": " +
               json_number(metric.value) + ", \"unit\": " + json_string(metric.unit) + "}";
  }
  std::cout << "{\"correct\": true, \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {" << metrics << "}}"
            << std::endl;
  return 0;
}
