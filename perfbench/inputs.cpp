// Seeded workload inputs. Everything here is a pure function of the seed:
// markets come from num::Rng streams keyed by mix(seed, ...), serve requests
// from the counter RNG, so the same seed reproduces every byte.
#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "subsidy/cli/market_spec.hpp"
#include "subsidy/econ/demand.hpp"
#include "subsidy/econ/throughput.hpp"
#include "subsidy/market/scenarios.hpp"
#include "subsidy/numerics/rng.hpp"
#include "subsidy/server/protocol.hpp"

namespace perfbench {

namespace econ = subsidy::econ;

const std::vector<double> kPolicyCaps{0.0, 0.5, 1.0, 1.5, 2.0};

namespace {

std::string fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

/// Uniform in [lo, hi) rounded to `decimals`, returned as the exact text
/// that both the request line and the one-shot argv carry.
std::string draw(std::uint64_t seed, std::uint64_t index, std::uint64_t stream, double lo,
                 double hi, int decimals) {
  return fixed(lo + (hi - lo) * unit(seed, index, stream), decimals);
}

// Streams of the serve generator (the third mix() argument).
enum Stream : std::uint64_t {
  kRepeatBack = 1,
  kSpec,
  kPrice = 100,
  kCap,
  kPmin,
  kPmax,
};

// Request k repeats an earlier one when k >= kRepeatBackMin and k % 10 is
// 3, 6 or 9: 30% of the stream, at fixed places, so every seed sends the
// same number of fresh queries. It repeats the request kRepeatBackMin to
// 200 places back, always in an earlier 64-request batch.
constexpr std::uint64_t kRepeatBackMin = 64;
constexpr std::uint64_t kRepeatBackMax = 200;

bool repeats(std::uint64_t index) {
  const std::uint64_t r = index % 10;
  return index >= kRepeatBackMin && (r == 3 || r == 6 || r == 9);
}

/// Repeat places among the first n requests, kRepeatBackMin onwards.
std::uint64_t repeats_before(std::uint64_t n) {
  const auto count = [](std::uint64_t m) {
    const std::uint64_t r = m % 10;
    return m / 10 * 3 + (r > 3) + (r > 6) + (r > 9);
  };
  return n <= kRepeatBackMin ? 0 : count(n) - count(kRepeatBackMin);
}

}  // namespace

std::vector<econ::Market> seeded_markets(std::uint64_t seed,
                                         const std::vector<std::size_t>& sizes) {
  std::vector<econ::Market> markets{subsidy::market::section5_market()};
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    subsidy::num::Rng rng(mix(seed, k, 0));
    // Section 5's parameter ranges: alpha, beta in [2, 5], v in [0.5, 1],
    // mu near 1. Wider ranges make the work per market swing by 1.5x
    // between seeds, which would drown any change in the code.
    subsidy::market::RandomMarketSpec spec;
    spec.min_providers = sizes[k];
    spec.max_providers = sizes[k];
    spec.alpha_min = spec.beta_min = 2.0;
    spec.alpha_max = spec.beta_max = 5.0;
    spec.profit_min = 0.5;
    spec.profit_max = 1.0;
    spec.capacity_min = 0.8;
    spec.capacity_max = 1.25;
    markets.push_back(subsidy::market::random_market(rng, spec));
  }
  return markets;
}

econ::Market duopoly_market() {
  return econ::Market::exponential(1.0, {2.0, 5.0, 3.0}, {3.0, 2.0, 4.0}, {1.0, 0.8, 0.5});
}

subsidy::core::DuopolyPricingOptions duopoly_options() {
  subsidy::core::DuopolyPricingOptions options;
  options.grid_points = 7;
  options.refine_tolerance = 1e-2;
  options.tolerance = 1e-2;
  options.subsidy_solver.tolerance = 1e-5;
  return options;
}

ServeStream::ServeStream(std::uint64_t seed) : seed_(seed) {
  specs_.push_back("section5");
  for (std::uint64_t m = 1; m < kServeMarkets; ++m) {
    const std::uint64_t n = 2 + (m - 1) % 7;  // 2..8 providers
    std::string alpha, beta, v;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i > 0) {
        alpha += ',';
        beta += ',';
        v += ',';
      }
      alpha += draw(seed, m * 100 + i, kSpec, 2.0, 5.0, 2);
      beta += draw(seed, m * 100 + i, kSpec + 10, 2.0, 5.0, 2);
      v += draw(seed, m * 100 + i, kSpec + 20, 0.5, 1.0, 2);
    }
    specs_.push_back("exp:mu=" + draw(seed, m, kSpec + 30, 0.8, 1.25, 2) + ";alpha=" + alpha +
                     ";beta=" + beta + ";v=" + v);
  }
}

std::uint64_t ServeStream::key_of(std::uint64_t index) const {
  while (repeats(index)) {
    index -= kRepeatBackMin +
             mix(seed_, index, kRepeatBack) % (kRepeatBackMax - kRepeatBackMin + 1);
  }
  return (index - repeats_before(index)) % kServeUniverse;  // the fresh query's ordinal
}

ServeRequest ServeStream::query(std::uint64_t key) const {
  ServeRequest out;
  out.key = key;
  // The key fixes the op and the market: of every 20 keys 15 ask
  // equilibrium, 4 one_sided and 1 sweep, and each op cycles through all
  // markets. The seed draws the numbers but the sweep caps. So every
  // seed's stream holds the same mix on the same market sizes, and the
  // work per pass barely moves between seeds.
  const std::uint64_t slot = key % 20;
  const std::string& spec = specs_[(key + key / 20) % specs_.size()];
  std::string body;
  if (slot < 15) {
    const std::string price = draw(seed_, key, kPrice, 0.3, 1.5, 3);
    const std::string cap = draw(seed_, key, kCap, 0.05, 1.0, 2);
    body = "\"op\":\"equilibrium\",\"market\":\"" + spec + "\",\"price\":" + price +
           ",\"cap\":" + cap;
    out.one_shot = {"nash", "--market", spec, "--price", price, "--cap", cap};
  } else {
    const std::string pmin = draw(seed_, key, kPmin, 0.05, 0.3, 3);
    const std::string pmax = draw(seed_, key, kPmax, 1.5, 2.5, 3);
    if (slot < 19) {
      body = "\"op\":\"one_sided\",\"market\":\"" + spec + "\",\"pmin\":" + pmin +
             ",\"pmax\":" + pmax + ",\"points\":41";
      out.one_shot = {"client", "--op", "one_sided", "--market", spec, "--pmin", pmin,
                      "--pmax", pmax, "--points", "41", "--run"};
    } else {
      // A sweep costs 1-13 ms depending most on its cap, and a batch holds
      // two or three, so a drawn cap would set the slowest batch by seed.
      // Sweeps take the caps 0.25, 0.5, 0.75 and 1 in turn.
      const std::string cap = fixed(0.25 * static_cast<double>(1 + key / 20 % 4), 2);
      body = "\"op\":\"sweep\",\"market\":\"" + spec + "\",\"cap\":" + cap +
             ",\"pmin\":" + pmin + ",\"pmax\":" + pmax + ",\"points\":41";
      out.one_shot = {"sweep", "--market", spec, "--cap", cap, "--pmin", pmin,
                      "--pmax", pmax, "--points", "41"};
    }
  }
  out.line = "{" + body + "}";
  return out;
}

ServeRequest ServeStream::request(std::uint64_t index) const {
  ServeRequest out = query(key_of(index));
  out.line.insert(1, "\"id\":\"r" + std::to_string(index) + "\",");
  return out;
}

std::string describe(const econ::Market& market) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "mu=%.17g", market.capacity());
  std::string text = buf;
  for (const econ::ContentProviderSpec& cp : market.providers()) {
    const auto* demand = dynamic_cast<const econ::ExponentialDemand*>(cp.demand.get());
    const auto* rate = dynamic_cast<const econ::ExponentialThroughput*>(cp.throughput.get());
    std::snprintf(buf, sizeof buf, ";%.17g,%.17g,%.17g", demand ? demand->alpha() : -1.0,
                  rate ? rate->beta() : -1.0, cp.profitability);
    text += buf;
  }
  return text;
}

std::vector<std::string> generator_selftest(std::uint64_t seed) {
  std::vector<std::string> failures;
  const auto fail = [&failures](const std::string& what) { failures.push_back(what); };
  const std::vector<std::size_t> sizes{8, 16, 32, 64};

  const auto market_text = [&sizes](std::uint64_t s) {
    std::string text;
    for (const econ::Market& m : seeded_markets(s, sizes)) text += describe(m) + "\n";
    return text;
  };
  if (market_text(seed) != market_text(seed)) fail("same seed gave different markets");
  if (market_text(seed) == market_text(seed + 1)) fail("seeds differ but markets match");
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    if (seeded_markets(seed, sizes)[k + 1].num_providers() != sizes[k]) {
      fail("random market " + std::to_string(k) + " has the wrong size");
    }
  }

  constexpr std::uint64_t kLines = 2000;
  const ServeStream a(seed), b(seed), other(seed + 1);
  std::string lines_a, lines_b, lines_other;
  std::set<std::uint64_t> keys;
  std::size_t repeats = 0, equilibria = 0, one_sided = 0, sweeps = 0;
  for (std::uint64_t k = 0; k < kLines; ++k) {
    const ServeRequest request = a.request(k);
    lines_a += request.line + "\n";
    lines_b += b.request(k).line + "\n";
    lines_other += other.request(k).line + "\n";
    if (!keys.insert(request.key).second) ++repeats;
    subsidy::server::Request parsed;
    try {
      parsed = subsidy::server::parse_request(request.line);
    } catch (const std::exception& e) {
      fail("request " + std::to_string(k) + " does not parse: " + e.what());
      continue;
    }
    std::string id = "r";
    id += std::to_string(k);
    if (parsed.id != id) fail("request " + std::to_string(k) + " has id " + parsed.id);
    if (parsed.op == "equilibrium") {
      ++equilibria;
      if (!parsed.price || !parsed.cap) fail("equilibrium without price/cap");
    } else if (parsed.op == "one_sided") {
      ++one_sided;
      if (parsed.points.value_or(0) != 41) fail("one_sided grid is not 41 points");
    } else if (parsed.op == "sweep") {
      ++sweeps;
    } else {
      fail("undocumented op '" + parsed.op + "'");
    }
  }
  if (lines_a != lines_b) fail("same seed gave different request lines");
  if (lines_a == lines_other) fail("seeds differ but request lines match");
  const auto share = [](std::size_t count) {
    return static_cast<double>(count) / static_cast<double>(kLines);
  };
  if (share(repeats) < 0.2 || share(repeats) > 0.45) fail("repeat share off ~30%");
  if (share(equilibria) < 0.65 || share(one_sided) < 0.12 || share(sweeps) < 0.02) {
    fail("request mix off 75/20/5");
  }
  for (const std::string& spec : a.market_specs()) {
    try {
      (void)subsidy::cli::parse_market_spec(spec);
    } catch (const std::exception& e) {
      fail("market spec '" + spec + "' is invalid: " + e.what());
    }
  }
  return failures;
}

}  // namespace perfbench
