// The timed-phase scaffolding every workload shares: the end of a set-up
// run, the pass loop, per-job timing and the end-to-end metric set.
//
// A workload is a fixed list of jobs (a lattice, a policy sweep, a game, a
// batch of requests) that every pass runs again in the same order on the
// same state. The shared machines this runs on slow down for seconds at a
// time, which moves a whole pass but not the job itself, so each job's
// time is its best over the passes of the run, and the end-to-end metrics
// are built from those best times.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench.hpp"
#include "subsidy/runtime/topology.hpp"

namespace perfbench {

/// One job of one pass.
struct JobTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t samples = 1;  ///< Latency samples it stands for (requests of a batch).
  std::size_t failed = 0;   ///< Of those, the ones that failed (latency +inf).
};

/// Raw measurements of one timed phase.
struct Timing {
  std::vector<std::vector<JobTime>> passes;  ///< Jobs of each pass, in order.
  std::uint64_t results_per_pass = 0;        ///< Rows, points, games or responses.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;
};

/// Runs `work`, one job of the current pass standing for `samples` latency
/// samples, and records its wall and process CPU time. Failures counted
/// into timing.failed during the job mark that many of its samples failed.
template <typename Work>
void timed_job(Timing& timing, std::size_t samples, Work&& work) {
  const std::uint64_t failed_before = timing.failed;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  work();
  const double wall = seconds_between(start, Clock::now());
  const double cpu = cpu_seconds() - cpu_start;
  const auto failed = static_cast<std::size_t>(timing.failed - failed_before);
  if (timing.passes.empty()) timing.passes.emplace_back();  // a warm-up pass
  timing.passes.back().push_back({wall, cpu, samples, std::min(samples, failed)});
}

/// Each job's best over the passes: least wall, least CPU, and the most
/// failed samples of any pass (a request that failed once counts as failed).
inline std::vector<JobTime> best_jobs(const Timing& timing) {
  std::vector<JobTime> best;
  for (const std::vector<JobTime>& pass : timing.passes) {
    if (best.empty()) {
      best = pass;
      continue;
    }
    for (std::size_t j = 0; j < std::min(best.size(), pass.size()); ++j) {
      best[j].wall_s = std::min(best[j].wall_s, pass[j].wall_s);
      best[j].cpu_s = std::min(best[j].cpu_s, pass[j].cpu_s);
      best[j].failed = std::max(best[j].failed, pass[j].failed);
    }
  }
  return best;
}

/// Wall time of the job list with every job at its best.
inline double best_run_s(const Timing& timing) {
  double run = 0.0;
  for (const JobTime& job : best_jobs(timing)) run += job.wall_s;
  return run;
}

/// In a --setup-only run, tells the parent driver on stdout how long since
/// it started this process the workload's context took to build, and
/// returns true: the workload then stops before its first timed call.
inline bool stop_after_setup(const Options& options) {
  if (!options.setup_only) return false;
  std::printf("ready %.9f\n", seconds_between(options.setup_start, Clock::now()));
  std::fflush(stdout);
  return true;
}

/// Runs `pass` (one pass over the fixed job list: it times each job with
/// timed_job and returns the results it completed) until `seconds` have
/// elapsed, at least once. After each pass it hands options.between_passes
/// the share of `seconds` gone so far.
///
/// Pass k runs pinned to CPU k mod n of the affinity mask. On the shared
/// VMs this runs on, one virtual CPU at a time can run 1.3-1.6x slower
/// than the others for tens of seconds, and a thread the scheduler leaves
/// there would see no fast pass at all.
template <typename Pass>
void timed_passes(const Options& options, Timing& timing, double seconds, Pass&& pass) {
  const std::vector<int> cpus = subsidy::runtime::available_cpus();
  const auto start = Clock::now();
  do {
    subsidy::runtime::pin_current_thread({cpus[timing.passes.size() % cpus.size()]});
    timing.passes.emplace_back();
    timing.results_per_pass = pass();
    if (options.between_passes) {
      options.between_passes(seconds_between(start, Clock::now()) / seconds);
    }
  } while (seconds_between(start, Clock::now()) < seconds);
  subsidy::runtime::pin_current_thread(cpus);
  timing.peak_rss_mb = peak_rss_mb();
}

/// The timed phase. Untraced runs time every pass into `timing`. Traced
/// runs spend the first half untraced (into `timing`, the base of
/// trace.overhead_frac) and the second half with `tracer` on (into
/// `traced`). `pass(tracer, timing)` runs one pass.
template <typename Pass>
void timed_phases(const Options& options, Timing& timing, Timing& traced, Tracer& tracer,
                  Pass&& pass) {
  Tracer off(false);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  timed_passes(options, timing, untraced_seconds, [&] { return pass(off, timing); });
  if (!options.trace) return;
  timed_passes(options, traced, options.seconds / 2, [&] { return pass(tracer, traced); });
  timing.attempted += traced.attempted;
  timing.failed += traced.failed;
}

/// The end-to-end metrics of BENCHMARK.json but setup_s, which the driver
/// measures in separate processes. Every job counts at its best time:
/// run_s and cpu_s sum the job list, the latency percentiles run over the
/// jobs' samples (a failed sample is +inf).
inline std::vector<Metric> end_to_end(const Timing& timing) {
  double run = 0.0;
  double cpu = 0.0;
  std::vector<double> latency_ms;
  for (const JobTime& job : best_jobs(timing)) {
    run += job.wall_s;
    cpu += job.cpu_s;
    latency_ms.insert(latency_ms.end(), job.samples - job.failed, 1e3 * job.wall_s);
    latency_ms.insert(latency_ms.end(), job.failed, std::numeric_limits<double>::infinity());
  }
  return {
      {"run_s", run, "s"},
      {"results_per_s", static_cast<double>(timing.results_per_pass) / run, "1/s"},
      {"latency_p50_ms", quantile(latency_ms, 0.50), "ms"},
      {"latency_p99_ms", quantile(latency_ms, 0.99), "ms"},
      {"cpu_s", cpu, "s"},
      {"peak_rss_mb", timing.peak_rss_mb, "MB"},
  };
}

/// Relative change of the traced over the untraced value.
inline double overhead(double traced, double untraced) {
  return untraced > 0.0 ? (traced - untraced) / untraced : 0.0;
}

}  // namespace perfbench
