// Workload `regulator`: the regulator's choice of cap. PolicyAnalyzer::sweep
// over the README cap list under the monopoly price response on the
// Section 5 market and seeded 8- and 16-provider markets, then the
// ISP-competition games of ablation_isp_competition on its market:
// DuopolyPricingGame::solve at caps {0, 0.4, 0.8} for a
// symmetric (0.6, 0.6) and a lopsided (0.9, 0.3) capacity split, plus the
// ablation's monopoly baseline at each cap.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "subsidy/core/core.hpp"
#include "subsidy/core/duopoly.hpp"
#include "subsidy/core/policy.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

namespace core = subsidy::core;
namespace econ = subsidy::econ;

const std::vector<double> kDuopolyCaps{0.0, 0.4, 0.8};
constexpr double kRivalOut = 50.0;  // a rival price that zeroes its logit weight

struct Context {
  std::vector<econ::Market> markets;
  std::vector<core::PolicyAnalyzer> analyzers;
  core::DuopolyModel symmetric;
  core::DuopolyModel lopsided;
  core::DuopolyModel monopoly;  ///< All capacity on ISP A; the rival priced out.
};

Context build(std::uint64_t seed) {
  std::vector<econ::Market> markets = seeded_markets(seed, {8, 8, 16, 16});
  std::vector<core::PolicyAnalyzer> analyzers;
  for (const econ::Market& market : markets) {
    analyzers.emplace_back(market, core::PriceResponse::monopoly());
  }
  const econ::Market base = duopoly_market();
  return Context{std::move(markets), std::move(analyzers),
                 core::DuopolyModel(core::DuopolySpec(base, 0.6, 0.6)),
                 core::DuopolyModel(core::DuopolySpec(base, 0.9, 0.3)),
                 core::DuopolyModel(core::DuopolySpec(base, 1.2, 1.2))};
}

struct MonopolyPoint {
  double price = 0.0;
  core::DuopolyState state;
};

struct PassOutput {
  std::vector<std::vector<core::PolicyPoint>> policy;  ///< Per market.
  std::vector<MonopolyPoint> monopoly;                 ///< Per duopoly cap.
  std::vector<core::DuopolyPricingResult> symmetric;   ///< Per duopoly cap.
  std::vector<core::DuopolyPricingResult> lopsided;
};

std::uint64_t run_pass(const Context& context, Tracer& tracer, Timing& timing,
                       PassOutput& out) {
  out = {};
  std::uint64_t results = 0;
  for (const core::PolicyAnalyzer& analyzer : context.analyzers) {
    timed_job(timing, 1, [&] {
      const ScopedSpan span(tracer, "core.policy.sweep");
      out.policy.push_back(analyzer.sweep(kPolicyCaps));
    });
    timing.attempted += out.policy.back().size();
    results += out.policy.back().size();
  }

  const core::DuopolyPricingOptions options = duopoly_options();
  for (const double cap : kDuopolyCaps) {
    timed_job(timing, 1, [&] {
      const ScopedSpan span(tracer, "core.duopoly.monopoly");
      const core::DuopolyPricingGame game(context.monopoly, cap, options);
      const double price = game.best_response_price(/*isp_a=*/true, kRivalOut, 1.0);
      const core::NashResult subsidies =
          context.monopoly.solve_subsidies(price, kRivalOut, cap);
      if (!subsidies.converged) ++timing.failed;
      out.monopoly.push_back({price, context.monopoly.evaluate(price, kRivalOut,
                                                               subsidies.subsidies)});
    });
    ++timing.attempted;
    ++results;
  }
  for (const bool symmetric : {true, false}) {
    for (const double cap : kDuopolyCaps) {
      timed_job(timing, 1, [&] {
        core::DuopolyPricingResult result;
        {
          const ScopedSpan span(tracer, "core.duopoly.game");
          result = core::DuopolyPricingGame(symmetric ? context.symmetric : context.lopsided,
                                            cap, options)
                       .solve();
        }
        if (!result.converged) ++timing.failed;
        (symmetric ? out.symmetric : out.lopsided).push_back(std::move(result));
      });
      ++timing.attempted;
      ++results;
    }
  }
  return results;
}

/// ablation_isp_competition's shape checks on the pass's games.
void duopoly_checks(const PassOutput& out, std::vector<std::string>& errors) {
  const auto check = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back("duopoly shape check failed: " + what);
  };
  for (std::size_t k = 0; k < kDuopolyCaps.size(); ++k) {
    const std::string at = " at q=" + std::to_string(kDuopolyCaps[k]);
    const core::DuopolyPricingResult& duo = out.symmetric[k];
    const MonopolyPoint& mono = out.monopoly[k];
    check(duo.converged, "duopoly pricing game converges" + at);
    check(out.lopsided[k].converged, "lopsided pricing game converges" + at);
    if (kDuopolyCaps[k] > 0.0) {
      check(duo.price_a < mono.price && duo.price_b < mono.price,
            "competition undercuts the monopoly price" + at);
    }
    check(duo.state.welfare > mono.state.welfare, "duopoly welfare beats monopoly" + at);
  }
  check(out.symmetric.back().state.welfare > out.symmetric.front().state.welfare,
        "deregulating subsidies raises welfare under competition");
  double mono_subscribers = 0.0;
  for (const double m : out.monopoly.back().state.population_a) mono_subscribers += m;
  check(out.symmetric.back().state.total_subscribers() > mono_subscribers,
        "competition grows the served user base");
  const core::DuopolyState& asym = out.lopsided[1].state;  // q = 0.4, as in the ablation
  check(asym.revenue_a > asym.revenue_b, "the larger ISP earns more revenue");
}

/// verify_kkt at every subsidized policy point of a pass, per market and cap
/// index (true = satisfied; the zero cap is not checked and reads true).
std::vector<std::vector<bool>> policy_kkt(const Context& context, const PassOutput& out) {
  std::vector<std::vector<bool>> satisfied;
  for (std::size_t m = 0; m < out.policy.size(); ++m) {
    satisfied.emplace_back();
    for (const core::PolicyPoint& point : out.policy[m]) {
      const core::SubsidizationGame game(context.markets[m], point.price, point.policy_cap);
      satisfied.back().push_back(point.policy_cap == 0.0 ||
                                 core::verify_kkt(game, point.subsidies).satisfied);
    }
  }
  return satisfied;
}

void gate(const Options& options, const PassOutput& first, const PassOutput& last,
          const std::vector<std::vector<bool>>& kkt, std::vector<std::string>& errors) {
  // KKT at a seeded sample of subsidized policy points.
  for (std::uint64_t j = 0; j < 6; ++j) {
    const std::size_t m = mix(options.seed, j, 5000) % kkt.size();
    const std::size_t k = 1 + mix(options.seed, j, 5001) % 4;
    if (!kkt[m][k]) {
      errors.push_back("KKT fails at policy point market " + std::to_string(m) +
                       " q=" + std::to_string(last.policy[m][k].policy_cap));
    }
  }
  duopoly_checks(last, errors);
  for (std::size_t m = 0; m < first.policy.size(); ++m) {
    for (std::size_t k = 0; k < first.policy[m].size(); ++k) {
      if (first.policy[m][k].price != last.policy[m][k].price ||
          first.policy[m][k].subsidies != last.policy[m][k].subsidies) {
        errors.push_back("policy sweep differs between passes (market " + std::to_string(m) + ")");
        break;
      }
    }
  }
  for (std::size_t k = 0; k < first.symmetric.size(); ++k) {
    if (first.symmetric[k].price_a != last.symmetric[k].price_a ||
        first.lopsided[k].price_b != last.lopsided[k].price_b) {
      errors.push_back("duopoly prices differ between passes");
      break;
    }
  }
}

/// Ladder nodes: per market, for caps 0.5 and 1.5, the 8 points of the price
/// optimizer's 0.1-spaced grid nearest the optimal price.
LadderInput ladder_input(const Context& context, const PassOutput& out) {
  LadderInput input;
  for (std::size_t m = 0; m < context.markets.size(); ++m) {
    LadderMarket entry{std::to_string(m), context.markets[m], {}};
    for (const std::size_t cap_index : {std::size_t{1}, std::size_t{3}}) {
      const core::PolicyPoint& point = out.policy[m][cap_index];
      const long centre = std::lround(point.price / 0.1);
      const long begin = std::clamp(centre - 4, 1L, 30L - 8);
      for (long k = begin; k < begin + 8; ++k) {
        entry.nodes.push_back({0.1 * static_cast<double>(k), point.policy_cap});
      }
    }
    input.markets.push_back(std::move(entry));
  }
  input.requests = equilibrium_requests(input.markets);
  return input;
}

}  // namespace

Outcome run_regulator(const Options& options) {
  Outcome outcome;
  Timing timing;
  const Context context = build(options.seed);
  if (stop_after_setup(options)) return outcome;

  // A warm-up pass outside the timed window: its output is what the gate
  // compares the last timed pass against.
  PassOutput first, last;
  Tracer tracer(options.trace);
  {
    Tracer off(false);
    Timing warmup;
    (void)run_pass(context, off, warmup, first);
  }
  Timing traced;
  timed_phases(options, timing, traced, tracer, [&](Tracer& spans, Timing& into) {
    return run_pass(context, spans, into, last);
  });

  // A policy point has no convergence flag; it fails when its KKT
  // conditions do not hold. Every pass reproduces the warm-up pass (gated
  // below), so a point that fails in the last pass fails in every pass.
  const std::vector<std::vector<bool>> kkt = policy_kkt(context, last);
  const std::size_t passes = timing.passes.size() + traced.passes.size();
  for (const std::vector<bool>& market : kkt) {
    const auto failing = std::count(market.begin(), market.end(), false);
    timing.failed += passes * static_cast<std::size_t>(failing);
  }

  if (!options.trace) {
    outcome.metrics = end_to_end(timing);
  } else {
    tracer.write(options.spans_out);
    outcome.metrics = run_ladder(ladder_input(context, last), outcome.errors);
    outcome.metrics.push_back(
        {"trace.overhead_frac", overhead(best_run_s(traced), best_run_s(timing)), "ratio"});
  }
  outcome.attempted = timing.attempted;
  outcome.failed = timing.failed;
  gate(options, first, last, kkt, outcome.errors);
  outcome.notes.push_back("passes=" + std::to_string(passes) + " jobs=1");
  return outcome;
}

}  // namespace perfbench
