// Workload `lattice`: the paper's production job. For the Section 5 market
// and seeded random markets with 8-64 providers, ParallelSweepRunner::run
// over caps {0, 0.5, 1, 1.5, 2} x 41 prices (chain 8), then one agent
// simulation at a Section 5 lattice node, cross-validated against it.
#include <cmath>

#include "bench.hpp"
#include "subsidy/core/core.hpp"
#include "subsidy/core/reference_point.hpp"
#include "subsidy/io/csv.hpp"
#include "subsidy/numerics/grid.hpp"
#include "subsidy/runtime/parallel_sweep.hpp"
#include "subsidy/sim/agent_engine.hpp"
#include "subsidy/sim/cross_validation.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

namespace core = subsidy::core;
namespace econ = subsidy::econ;
namespace runtime = subsidy::runtime;
namespace sim = subsidy::sim;

constexpr std::size_t kPoints = 41;
constexpr std::size_t kSimCapIndex = 2;  // q = 1
constexpr std::size_t kSimAgentsPerProvider = 20000;
constexpr double kSimTolerance = 0.05;  // agent_sim.scn's validate
constexpr double kGoldenTolerance = 1e-6;  // tools/scenario_smoke's default
constexpr const char* kGoldenCsv =
    "examples/scenarios/goldens/section5_figures/section5_figures.csv";

const std::vector<double>& prices() {
  static const std::vector<double> grid = subsidy::num::linspace(0.05, 2.0, kPoints);
  return grid;
}

struct Context {
  std::vector<econ::Market> markets;
  std::vector<runtime::ParallelSweepRunner> runners;
};

Context build(std::uint64_t seed) {
  Context context;
  context.markets = seeded_markets(seed, {8, 8, 16, 16, 32, 32, 64});
  runtime::SweepOptions options;
  options.jobs = kJobs;
  options.chain_length = 8;
  for (const econ::Market& market : context.markets) context.runners.emplace_back(market, options);
  return context;
}

/// Everything one pass produced (the gate reads the last pass).
struct PassOutput {
  std::vector<std::vector<runtime::SweepRow>> rows;  ///< Per market.
  core::EquilibriumReference node;                   ///< The simulated lattice node.
  sim::SimResult sim;
};

core::EquilibriumReference reference_at(const runtime::SweepRow& row) {
  core::EquilibriumReference reference;
  reference.price = row.price;
  reference.policy_cap = row.policy_cap;
  reference.subsidies = row.result.subsidies;
  reference.populations = row.result.state.populations();
  reference.phi = row.result.state.utilization;
  reference.state = row.result.state;
  reference.nash_converged = row.result.converged;
  return reference;
}

std::uint64_t run_pass(const Context& context, std::uint64_t seed, Tracer& tracer,
                       Timing& timing, PassOutput& out) {
  out.rows.clear();
  std::uint64_t results = 0;
  for (const runtime::ParallelSweepRunner& runner : context.runners) {
    timed_job(timing, 1, [&] {
      {
        const ScopedSpan span(tracer, "runtime.sweep");
        out.rows.push_back(runner.run(kPolicyCaps, prices()));
      }
      for (const runtime::SweepRow& row : out.rows.back()) {
        ++timing.attempted;
        if (!row.result.converged) ++timing.failed;
      }
    });
    results += out.rows.back().size();
  }

  // p in [0.83, 2]: below ~0.8 at q = 1 the top providers' effective price
  // nears 0, where the noisy agents' adoption misses the analytic mass by
  // more than 5% (a model bias at the truncated demand edge).
  const std::size_t price_index = 16 + mix(seed, 0, 2000) % 25;
  out.node = reference_at(out.rows.front()[kSimCapIndex * kPoints + price_index]);
  timed_job(timing, 1, [&] {
    {
      const ScopedSpan span(tracer, "sim.run");
      sim::SimConfig config;
      config.price = out.node.price;
      config.subsidies = out.node.subsidies;
      config.ticks = 120;
      config.replicas = 2;
      config.snapshot_every = 20;
      config.jobs = kJobs;
      const econ::Market& market = context.markets.front();
      sim::AgentMarketEngine engine(
          market,
          sim::AgentMarketEngine::uniform_groups(market, kSimAgentsPerProvider, seed, 4, 0.02),
          config);
      out.sim = engine.run();
    }
    ++timing.attempted;
    bool sim_ok = !out.sim.failed;
    for (const core::SolveStatus status : out.sim.statuses) sim_ok = sim_ok && !core::failed(status);
    if (!sim_ok) ++timing.failed;
  });
  return results + 1;
}

bool same_bits(const runtime::SweepRow& a, const runtime::SweepRow& b) {
  return a.result.subsidies == b.result.subsidies &&
         a.result.state.utilization == b.result.state.utilization &&
         a.result.state.welfare == b.result.state.welfare;
}

void gate(const Options& options, const Context& context, const PassOutput& first,
          const PassOutput& last, std::vector<std::string>& errors) {
  // Section 5 rows against the committed scenario goldens.
  const subsidy::io::SweepTable golden = subsidy::io::read_csv_file(kGoldenCsv);
  const std::vector<runtime::SweepRow>& rows = last.rows.front();
  if (golden.num_rows() != rows.size()) {
    errors.push_back("section5 lattice has " + std::to_string(rows.size()) + " rows, golden " +
                     std::to_string(golden.num_rows()));
  } else {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const core::SystemState& state = rows[r].result.state;
      const double got[] = {rows[r].policy_cap, rows[r].price, state.utilization,
                            state.aggregate_throughput, state.revenue, state.welfare};
      for (std::size_t c = 0; c < 6; ++c) {
        const double want = golden.cell(r, c);
        if (std::abs(got[c] - want) > kGoldenTolerance * std::max(1.0, std::abs(want))) {
          errors.push_back("section5 row " + std::to_string(r) + " column " +
                           golden.columns()[c] + " differs from the golden");
          break;
        }
      }
    }
  }

  // KKT at a seeded sample of subsidized lattice nodes.
  for (std::uint64_t j = 0; j < 12; ++j) {
    const std::size_t m = mix(options.seed, j, 3000) % context.markets.size();
    const runtime::SweepRow& row = last.rows[m][kPoints + mix(options.seed, j, 3001) % (4 * kPoints)];
    const core::SubsidizationGame game(context.markets[m], row.price, row.policy_cap);
    if (!core::verify_kkt(game, row.result.subsidies).satisfied) {
      errors.push_back("KKT fails at market " + std::to_string(m) + " p=" +
                       std::to_string(row.price) + " q=" + std::to_string(row.policy_cap));
    }
  }

  const sim::CrossValidationReport report =
      sim::validate_against_reference(last.sim, last.node, kSimTolerance);
  if (!report.pass) errors.push_back("agent simulation fails cross-validation within 0.05");

  for (std::size_t m = 0; m < first.rows.size(); ++m) {
    for (std::size_t r = 0; r < first.rows[m].size(); ++r) {
      if (!same_bits(first.rows[m][r], last.rows[m][r])) {
        errors.push_back("lattice rows differ between passes (market " + std::to_string(m) + ")");
        break;
      }
    }
  }
}

/// Ladder nodes: two 8-price chains (caps 0.5 and 1.5) on section5 and on
/// one market of each size up to 32 providers.
LadderInput ladder_input(const Context& context, std::uint64_t seed) {
  LadderInput input;
  for (const std::size_t m : {0, 1, 3, 5}) {
    LadderMarket entry{std::to_string(m), context.markets[m], {}};
    for (const std::size_t cap_index : {std::size_t{1}, std::size_t{3}}) {
      const std::size_t begin = mix(seed, m * 10 + cap_index, 4000) % (kPoints - 8);
      for (std::size_t k = begin; k < begin + 8; ++k) {
        entry.nodes.push_back({prices()[k], kPolicyCaps[cap_index]});
      }
    }
    input.markets.push_back(std::move(entry));
  }
  input.requests = equilibrium_requests(input.markets);
  return input;
}

}  // namespace

Outcome run_lattice(const Options& options) {
  Outcome outcome;
  Timing timing;
  const Context context = build(options.seed);
  if (stop_after_setup(options)) return outcome;

  // A warm-up pass outside the timed window: its output is what the gate
  // compares the last timed pass against, bit for bit.
  PassOutput first, last;
  Tracer tracer(options.trace);
  {
    Tracer off(false);
    Timing warmup;
    (void)run_pass(context, options.seed, off, warmup, first);
  }
  Timing traced;
  timed_phases(options, timing, traced, tracer, [&](Tracer& spans, Timing& into) {
    return run_pass(context, options.seed, spans, into, last);
  });

  if (!options.trace) {
    outcome.metrics = end_to_end(timing);
  } else {
    tracer.write(options.spans_out);
    outcome.metrics = run_ladder(ladder_input(context, options.seed), outcome.errors);
    outcome.metrics.push_back(
        {"trace.overhead_frac", overhead(best_run_s(traced), best_run_s(timing)), "ratio"});
  }
  outcome.attempted = timing.attempted;
  outcome.failed = timing.failed;
  gate(options, context, first, last, outcome.errors);
  outcome.notes.push_back("passes=" + std::to_string(timing.passes.size()) + " jobs=" +
                          std::to_string(kJobs) + " sim_decisions_per_run=" +
                          std::to_string(last.sim.decisions));
  return outcome;
}

}  // namespace perfbench
