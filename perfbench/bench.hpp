// Shared pieces of the benchmark driver: clocks and process counters,
// order statistics, the counter-based input RNG, in-memory spans, the
// seeded workload inputs, and the entry points of the workloads and of the
// per-layer replay ("ladder").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "subsidy/core/duopoly.hpp"
#include "subsidy/econ/market.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double cpu_seconds();

/// Peak resident set size of the process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank quantile (q in [0, 1]) of `values`; +inf sorts last, so a
/// failed request counted as +inf lands in the tail. 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Counter-based RNG: a pure function of (seed, index, stream), so any
/// input can be regenerated from its index alone.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t stream);
/// Uniform double in [0, 1) from mix().
[[nodiscard]] double unit(std::uint64_t seed, std::uint64_t index, std::uint64_t stream);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// --- Spans ------------------------------------------------------------------

/// One timed interval around a public call the driver makes. `parent` is
/// the index of the enclosing span (-1 at top level); `request` groups the
/// spans of one served request (0 elsewhere).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Records spans in memory from a single thread; a disabled tracer records
/// nothing and costs one branch per call. write() dumps them as JSON lines.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index (-1
  /// when disabled).
  int begin(const char* name, std::uint64_t request = 0);
  void end(int span);

  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// --- Seeded inputs ----------------------------------------------------------

/// Policy caps of the README's `policy` example and of the lattice.
extern const std::vector<double> kPolicyCaps;

/// Lattice / regulator markets: the Section 5 market followed by seeded
/// market::random_market draws with exactly `sizes[k]` providers, in the
/// Section 5 parameter ranges.
[[nodiscard]] std::vector<subsidy::econ::Market> seeded_markets(
    std::uint64_t seed, const std::vector<std::size_t>& sizes);

/// The three-provider market of the ISP-competition ablation. It is not
/// seeded: the duopoly solver's work swings by 2-5x under 5% parameter
/// changes, so the seed varies the policy markets only.
[[nodiscard]] subsidy::econ::Market duopoly_market();

/// Settings of the duopoly pricing games (the ablation's, with a 7-point
/// price grid and a 1e-5 subsidy tolerance so a pass fits a run).
[[nodiscard]] subsidy::core::DuopolyPricingOptions duopoly_options();

/// One generated serve request: the protocol line plus the argv of the
/// one-shot CLI command whose stdout the response text must equal.
struct ServeRequest {
  std::uint64_t key = 0;          ///< Index of the distinct query it asks.
  std::string line;               ///< The request line (id "r<index>").
  std::vector<std::string> one_shot;  ///< subsidy_cli argv of the same query.
};

/// The serve workload's request stream: request k is a pure function of
/// (seed, k). 30% repeat the query of a request 64-200 places back; the
/// rest ask fresh queries, numbered in order (modulo kServeUniverse), with
/// the mix 75% equilibrium, 20% 41-point one_sided, 5% sweep over
/// kServeMarkets seeded markets (section5 plus `exp:` specs of 2-8
/// providers).
class ServeStream {
 public:
  static constexpr std::uint64_t kServeUniverse = 6000;
  static constexpr std::uint64_t kServeMarkets = 32;

  explicit ServeStream(std::uint64_t seed);

  [[nodiscard]] ServeRequest request(std::uint64_t index) const;
  /// The distinct query behind universe key `key` (id-free line + argv).
  [[nodiscard]] ServeRequest query(std::uint64_t key) const;
  [[nodiscard]] std::uint64_t key_of(std::uint64_t index) const;
  [[nodiscard]] const std::vector<std::string>& market_specs() const noexcept {
    return specs_;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> specs_;
};

/// A canonical text form of a market (capacity and every provider's
/// parameters at %.17g), used to prove generated markets byte-identical.
[[nodiscard]] std::string describe(const subsidy::econ::Market& market);

/// Generator self-test: same seed -> byte-identical markets and request
/// lines, different seeds -> different ones, every request a documented
/// kind. Returns the failures (empty = pass).
[[nodiscard]] std::vector<std::string> generator_selftest(std::uint64_t seed);

// --- Workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build the workload's context, report on stdout the seconds since
  /// `setup_start` (the parent driver's clock when it started this
  /// process), and stop: one cold set-up.
  bool setup_only = false;
  Clock::time_point setup_start;
  std::string spans_out;  ///< Where the traced run writes its spans.
  /// Called after every timed pass with the share of the timed phase gone
  /// so far; the driver spreads its cold set-ups over the run with it.
  std::function<void(double)> between_passes;
};

/// What a run reports: the correctness gate's failures (empty = correct),
/// operation counts, and the metrics of the requested tier.
struct Outcome {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Human-readable lines (stdout).
};

/// Worker threads of every workload, fixed at 1: the shared virtual
/// machines this runs on swing between about one and four effective cores
/// within minutes, so the wall time of a multi-threaded phase is unsteady.
/// The traced ladder times one lattice at kProbeJobs against jobs = 1.
inline constexpr std::size_t kJobs = 1;
inline constexpr std::size_t kProbeJobs = 3;

[[nodiscard]] Outcome run_lattice(const Options& options);
[[nodiscard]] Outcome run_regulator(const Options& options);
[[nodiscard]] Outcome run_serve(const Options& options);

// --- Layer ladder -----------------------------------------------------------

/// One Nash node of a workload (solved in chains of consecutive nodes).
struct LadderNode {
  double price = 0.0;
  double cap = 0.0;
};

/// A market of the replay, under the name its server requests use.
struct LadderMarket {
  std::string name;
  subsidy::econ::Market market;
  std::vector<LadderNode> nodes;
};

/// A workload's inputs for the replay: its markets with their Nash nodes
/// (the first market also drives the policy and sim replays), and the
/// protocol lines the server replay sends.
struct LadderInput {
  std::vector<LadderMarket> markets;
  std::vector<std::string> requests;
};

/// An `equilibrium` request line for every node of `markets`.
[[nodiscard]] std::vector<std::string> equilibrium_requests(
    const std::vector<LadderMarket>& markets);

/// Replays the workload's inputs through each layer's public entry point
/// and returns every per-layer metric but trace.overhead_frac. Every
/// workload goes through the same replay, so a metric means the same on
/// each; only the inputs differ. Appends to `errors` when the width-1 and
/// width-8 Nash results differ in any bit or a replayed request fails.
[[nodiscard]] std::vector<Metric> run_ladder(const LadderInput& input,
                                             std::vector<std::string>& errors);

}  // namespace perfbench
