// The layer ladder: a workload's own markets, Nash nodes and requests
// replayed through each layer's public entry point, bottom up, so every
// layer reports a number in its own unit (ns per exp lane, ns per plane
// node, us per Nash solve, ms per cap / game / lattice, ...). Every
// workload's traced run goes through this one replay.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <stdexcept>

#include "bench.hpp"
#include "subsidy/core/core.hpp"
#include "subsidy/core/duopoly.hpp"
#include "subsidy/core/market_kernel.hpp"
#include "subsidy/core/nash_batch.hpp"
#include "subsidy/core/policy.hpp"
#include "subsidy/econ/demand.hpp"
#include "subsidy/econ/throughput.hpp"
#include "subsidy/numerics/grid.hpp"
#include "subsidy/numerics/simd.hpp"
#include "subsidy/runtime/parallel_sweep.hpp"
#include "subsidy/server/engine.hpp"
#include "subsidy/server/protocol.hpp"
#include "subsidy/sim/agent_engine.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

namespace core = subsidy::core;
namespace econ = subsidy::econ;
namespace runtime = subsidy::runtime;
namespace server = subsidy::server;

/// Calls `fn` until at least `min_seconds` have passed; returns seconds per call.
template <typename Fn>
double per_call(double min_seconds, Fn&& fn) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (seconds_between(start, Clock::now()) < min_seconds);
  return seconds_between(start, Clock::now()) / static_cast<double>(calls);
}

/// A volatile sink so timed results are not optimized away.
volatile double g_sink = 0.0;

struct NashTotals {
  double w1_s = 0.0;
  double w8_s = 0.0;
  std::size_t solves = 0;
  core::NashBatchStats w1;
  core::NashBatchStats w8;
};

/// Solves the market's nodes one at a time and in chains of 8; returns the
/// width-1 results.
std::vector<core::NashResult> replay_nash(const core::ModelEvaluator& evaluator,
                                          const std::vector<LadderNode>& nodes,
                                          NashTotals& totals, std::vector<std::string>& errors) {
  std::vector<core::NashBatchNode> batch;
  for (const LadderNode& node : nodes) batch.push_back({node.price, node.cap, {}, -1.0});
  std::vector<core::NashResult> w1;
  auto start = Clock::now();
  for (const core::NashBatchNode& node : batch) {
    w1.push_back(core::solve_nash_many(evaluator, std::span(&node, 1), {}, {}, &totals.w1).front());
  }
  totals.w1_s += seconds_between(start, Clock::now());
  std::vector<core::NashResult> w8;
  start = Clock::now();
  for (std::size_t k = 0; k < batch.size(); k += 8) {
    const std::size_t count = std::min<std::size_t>(8, batch.size() - k);
    for (core::NashResult& result :
         core::solve_nash_many(evaluator, std::span(batch).subspan(k, count), {}, {}, &totals.w8)) {
      w8.push_back(std::move(result));
    }
  }
  totals.w8_s += seconds_between(start, Clock::now());
  totals.solves += batch.size();
  for (std::size_t k = 0; k < w1.size(); ++k) {
    if (w1[k].subsidies != w8[k].subsidies || w1[k].state.utilization != w8[k].state.utilization) {
      errors.push_back("Nash lane bits depend on the batch width (node " + std::to_string(k) + ")");
      break;
    }
  }
  return w1;
}

/// Requests the server replay keeps in flight, as serve_burst does.
constexpr std::size_t kOutstanding = 64;

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::vector<std::string> equilibrium_requests(const std::vector<LadderMarket>& markets) {
  std::vector<std::string> lines;
  for (const LadderMarket& market : markets) {
    for (const LadderNode& node : market.nodes) {
      lines.push_back("{\"id\":\"l" + std::to_string(lines.size()) +
                      "\",\"op\":\"equilibrium\",\"market\":\"" + market.name +
                      "\",\"price\":" + number(node.price) + ",\"cap\":" + number(node.cap) +
                      "}");
    }
  }
  return lines;
}

std::vector<Metric> run_ladder(const LadderInput& input, std::vector<std::string>& errors) {
  NashTotals nash;
  double compile_s = 0.0, gap_s = 0.0, plane_s = 0.0, single_s = 0.0;
  std::size_t markets = 0, nodes = 0;
  std::vector<double> exponents;
  const LadderMarket* first_node_market = nullptr;
  core::NashResult first_node;

  for (const LadderMarket& entry : input.markets) {
    if (entry.nodes.empty()) continue;
    compile_s += per_call(0.002, [&] {
      const core::MarketKernel kernel(entry.market);
      g_sink = kernel.capacity();
    });
    ++markets;

    const core::ModelEvaluator evaluator(entry.market);
    const std::vector<core::NashResult> solved = replay_nash(evaluator, entry.nodes, nash, errors);
    if (first_node_market == nullptr) {
      first_node_market = &entry;
      first_node = solved.front();
    }

    // The solved nodes' populations as one plane.
    const std::size_t count = solved.size(), n = entry.market.num_providers();
    std::vector<double> flat, phis, g(count), dg(count), out(count);
    for (const core::NashResult& result : solved) {
      const std::vector<double> m = result.state.populations();
      flat.insert(flat.end(), m.begin(), m.end());
      phis.push_back(result.state.utilization);
    }
    const core::MarketKernel& kernel = evaluator.kernel();
    core::BatchBinding binding;
    kernel.batch_reserve(count, binding);
    for (std::size_t k = 0; k < count; ++k) {
      (void)kernel.batch_bind_column(k, std::span(flat).subspan(k * n, n), binding);
    }
    gap_s += per_call(0.005, [&] { kernel.batch_gap_with_derivative(binding, phis, g, dg); });
    const core::UtilizationSolver& solver = evaluator.solver();
    plane_s += per_call(0.005, [&] { solver.solve_many(flat, {}, out); });
    single_s += per_call(0.005, [&] {
      for (std::size_t k = 0; k < count; ++k) {
        double phi = 0.0;
        (void)solver.try_solve(std::span(flat).subspan(k * n, n), phi);
        g_sink = phi;
      }
    });
    nodes += count;

    // The exponent arguments the kernel evaluates at these nodes.
    for (const core::NashResult& result : solved) {
      for (std::size_t i = 0; i < n; ++i) {
        const econ::ContentProviderSpec& cp = entry.market.provider(i);
        if (const auto* d = dynamic_cast<const econ::ExponentialDemand*>(cp.demand.get())) {
          exponents.push_back(-d->alpha() * result.state.providers[i].effective_price);
        }
        if (const auto* t = dynamic_cast<const econ::ExponentialThroughput*>(cp.throughput.get())) {
          exponents.push_back(-t->beta() * result.state.utilization);
        }
      }
    }
  }

  const double solves = static_cast<double>(nash.solves);
  std::vector<Metric> metrics;
  std::vector<double> lanes(exponents.size());
  metrics.push_back({"numerics.exp_ns_per_lane",
                     1e9 *
                         per_call(0.02,
                                  [&] {
                                    subsidy::num::simd::exp_batch(exponents.data(), lanes.data(),
                                                                  exponents.size());
                                    g_sink = lanes.back();
                                  }) /
                         static_cast<double>(exponents.size()),
                     "ns"});
  metrics.push_back({"core.kernel.compile_us", 1e6 * compile_s / static_cast<double>(markets), "us"});
  metrics.push_back({"core.kernel.gap_ns_per_node", 1e9 * gap_s / static_cast<double>(nodes), "ns"});
  metrics.push_back(
      {"core.utilization.plane_ns_per_node", 1e9 * plane_s / static_cast<double>(nodes), "ns"});
  metrics.push_back({"core.utilization.single_ns", 1e9 * single_s / static_cast<double>(nodes), "ns"});
  metrics.push_back({"core.nash.us_per_solve_w1", 1e6 * nash.w1_s / solves, "us"});
  metrics.push_back({"core.nash.us_per_solve_w8", 1e6 * nash.w8_s / solves, "us"});
  metrics.push_back(
      {"core.nash.candidates_per_solve", static_cast<double>(nash.w1.candidates) / solves, "count"});
  metrics.push_back(
      {"core.nash.passes_per_solve", static_cast<double>(nash.w1.passes) / solves, "count"});
  metrics.push_back({"core.nash.columns_per_pass",
                     static_cast<double>(nash.w1.candidates) / static_cast<double>(nash.w1.passes),
                     "count"});
  metrics.push_back({"core.nash.columns_per_pass_w8",
                     static_cast<double>(nash.w8.candidates) / static_cast<double>(nash.w8.passes),
                     "count"});
  metrics.push_back(
      {"core.nash.fallback_frac", static_cast<double>(nash.w1.fallbacks) / solves, "ratio"});

  // The policy and sim replays run on the first market with nodes.
  const econ::Market& base = first_node_market->market;
  const LadderNode& node = first_node_market->nodes.front();

  {
    const core::PolicyAnalyzer analyzer(base, core::PriceResponse::monopoly());
    const auto start = Clock::now();
    g_sink = analyzer.sweep(kPolicyCaps).back().price;
    metrics.push_back({"core.policy.ms_per_cap",
                       1e3 * seconds_between(start, Clock::now()) /
                           static_cast<double>(kPolicyCaps.size()),
                       "ms"});
  }

  {
    // The regulator workload's symmetric game at q = 0.4.
    const core::DuopolyModel model(core::DuopolySpec(duopoly_market(), 0.6, 0.6));
    const core::DuopolyPricingOptions options = duopoly_options();
    const auto start = Clock::now();
    const core::DuopolyPricingResult game = core::DuopolyPricingGame(model, 0.4, options).solve();
    const double game_ms = 1e3 * seconds_between(start, Clock::now());
    const double subsidy_s = per_call(0.02, [&] {
      g_sink = model.solve_subsidies(game.price_a, game.price_b, 0.4, {}, options.subsidy_solver)
                   .residual;
    });
    metrics.push_back({"core.duopoly.ms_per_game", game_ms, "ms"});
    metrics.push_back({"core.duopoly.rounds_per_game", static_cast<double>(game.rounds), "count"});
    metrics.push_back({"core.duopoly.subsidy_solve_us", 1e6 * subsidy_s, "us"});
  }

  // The largest market's lattice at the workload's jobs and at kProbeJobs.
  const LadderMarket* largest = first_node_market;
  for (const LadderMarket& entry : input.markets) {
    if (entry.market.num_providers() > largest->market.num_providers()) largest = &entry;
  }
  const std::vector<double> prices = subsidy::num::linspace(0.05, 2.0, 41);
  const auto lattice = [&](std::size_t jobs, double& cpu) {
    runtime::SweepOptions options;
    options.jobs = jobs;
    options.chain_length = 8;
    const runtime::ParallelSweepRunner runner(largest->market, options);
    const double cpu_start = cpu_seconds();
    const auto start = Clock::now();
    g_sink = runner.run(kPolicyCaps, prices).back().result.state.welfare;
    cpu = cpu_seconds() - cpu_start;
    return seconds_between(start, Clock::now());
  };
  double cpu_workload = 0.0, cpu_probe = 0.0;
  const double workload_s = lattice(kJobs, cpu_workload);
  const double probe_s = lattice(kProbeJobs, cpu_probe);
  metrics.push_back({"runtime.sweep.ms_per_lattice", 1e3 * workload_s, "ms"});
  metrics.push_back({"runtime.sweep.cpu_over_wall", cpu_workload / workload_s, "ratio"});
  metrics.push_back({"runtime.sweep.speedup_vs_jobs1", workload_s / probe_s, "ratio"});

  {
    subsidy::sim::SimConfig config;
    config.price = node.price;
    config.subsidies = first_node.subsidies;
    config.ticks = 60;
    config.replicas = 2;
    config.snapshot_every = 0;
    config.jobs = kJobs;
    subsidy::sim::AgentMarketEngine engine(
        base, subsidy::sim::AgentMarketEngine::uniform_groups(base, 2000, 1, 4, 0.02), config);
    const auto start = Clock::now();
    const subsidy::sim::SimResult result = engine.run();
    const double sim_s = seconds_between(start, Clock::now());
    metrics.push_back(
        {"sim.ns_per_decision", 1e9 * sim_s / static_cast<double>(result.decisions), "ns"});
    metrics.push_back(
        {"sim.ms_per_tick", 1e3 * sim_s / static_cast<double>(result.completed_ticks), "ms"});
  }

  {
    // The workload's request lines through a fresh engine, kOutstanding in
    // flight; markets resolve by name from the input.
    server::ServerConfig config;
    config.market_resolver = [&input](const std::string& name) {
      for (const LadderMarket& entry : input.markets) {
        if (entry.name == name) return entry.market;
      }
      throw std::invalid_argument("unknown market '" + name + "'");
    };
    config.default_jobs = static_cast<int>(kJobs);
    server::ServerEngine engine(std::move(config));
    engine.start();
    std::vector<double> parse_s, serialize_s, sojourn_s;
    std::deque<std::pair<Clock::time_point, std::future<server::Response>>> pending;
    const auto complete = [&] {
      auto [submitted, future] = std::move(pending.front());
      pending.pop_front();
      const server::Response response = future.get();
      const auto ready = Clock::now();
      sojourn_s.push_back(seconds_between(submitted, ready));
      g_sink = static_cast<double>(server::serialize_response(response).size());
      serialize_s.push_back(seconds_between(ready, Clock::now()));
      if (!response.ok) errors.push_back("ladder server replay: " + response.error);
    };
    for (const std::string& line : input.requests) {
      if (pending.size() == kOutstanding) complete();
      const auto start = Clock::now();
      server::Request request = server::parse_request(line);
      const auto parsed = Clock::now();
      parse_s.push_back(seconds_between(start, parsed));
      pending.emplace_back(parsed, engine.submit(std::move(request)));
    }
    while (!pending.empty()) complete();
    engine.stop();
    const server::ServerStats stats = engine.stats();
    const double requests = static_cast<double>(stats.requests);
    metrics.push_back({"server.parse_us", 1e6 * median(parse_s), "us"});
    metrics.push_back({"server.serialize_us", 1e6 * median(serialize_s), "us"});
    metrics.push_back({"server.sojourn_ms", 1e3 * median(sojourn_s), "ms"});
    metrics.push_back(
        {"server.requests_per_batch", requests / static_cast<double>(stats.batches), "count"});
    metrics.push_back(
        {"server.coalesced_frac", static_cast<double>(stats.coalesced_lanes) / requests, "ratio"});
    metrics.push_back(
        {"server.exact_hit_frac", static_cast<double>(stats.exact_hits) / requests, "ratio"});
    metrics.push_back({"server.evictions", static_cast<double>(stats.evictions), "count"});
  }
  return metrics;
}

}  // namespace perfbench
