// Workload `serve_burst`: the seeded request mix (ServeStream) through one
// in-process ServerEngine under backlog. 64 callers each wait for their
// reply, and every round their 64 requests arrive together and are served
// as one coalesced batch, like BM_ServerThroughput/64: parse_request on
// each line, ServerEngine::serve on the batch, serialize_response on each
// reply. A pass is the stream's first kCycle requests, in order, on the
// engine the earlier passes left behind, so every timed pass meets the same
// cache state.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "bench.hpp"
#include "subsidy/cli/commands.hpp"
#include "subsidy/cli/market_spec.hpp"
#include "subsidy/server/engine.hpp"
#include "subsidy/server/protocol.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

namespace server = subsidy::server;

constexpr std::size_t kBatch = 64;    // callers, and requests per coalesced batch
constexpr std::size_t kCycle = 1024;  // requests per pass; p99 has ten samples beyond it
constexpr std::size_t kCheckThreads = 4;
constexpr std::uint64_t kLadderRequests = 512;  // stream prefix the server replay sends

struct Context {
  std::vector<ServeRequest> requests;  ///< The stream's first kCycle requests.
  std::unique_ptr<server::ServerEngine> engine;
};

Context build(std::uint64_t seed) {
  const ServeStream stream(seed);
  Context context;
  for (std::uint64_t k = 0; k < kCycle; ++k) context.requests.push_back(stream.request(k));
  server::ServerConfig config;
  config.market_resolver = [](const std::string& spec) {
    return subsidy::cli::parse_market_spec(spec);
  };
  config.cache_capacity = 256;
  config.default_jobs = static_cast<int>(kJobs);
  context.engine = std::make_unique<server::ServerEngine>(std::move(config));
  return context;
}

/// The first response seen for each distinct query (the gate renders each
/// once more through the one-shot CLI).
struct Answer {
  std::string text;
  int exit_code = 0;
  bool ok = false;
};

/// One pass: the cycle's requests in batches of kBatch, each batch one
/// timed job whose kBatch latency samples run from the batch's arrival to
/// its replies serialized. Every reply must equal the first one to the
/// same query.
std::uint64_t run_pass(const Context& context, Tracer& tracer, Timing& timing,
                       std::unordered_map<std::uint64_t, Answer>& answers,
                       std::vector<std::string>& errors) {
  for (std::size_t begin = 0; begin < kCycle; begin += kBatch) {
    std::vector<server::Response> responses;
    timed_job(timing, kBatch, [&] {
      const ScopedSpan batch_span(tracer, "server.batch");
      std::vector<server::Request> batch;
      for (std::size_t k = begin; k < begin + kBatch; ++k) {
        const ScopedSpan span(tracer, "server.parse", k + 1);
        batch.push_back(server::parse_request(context.requests[k].line));
      }
      {
        const ScopedSpan span(tracer, "server.serve");
        responses = context.engine->serve(batch);
      }
      for (std::size_t k = 0; k < kBatch; ++k) {
        const ScopedSpan span(tracer, "server.serialize", begin + k + 1);
        (void)server::serialize_response(responses[k]);  // the line a transport would write
        ++timing.attempted;
        if (!responses[k].ok || responses[k].exit_code != 0) ++timing.failed;
      }
    });
    for (std::size_t k = 0; k < kBatch; ++k) {
      const server::Response& response = responses[k];
      const auto [it, fresh] = answers.try_emplace(
          context.requests[begin + k].key, Answer{response.text, response.exit_code, response.ok});
      if (!fresh && errors.size() < 20 &&
          (it->second.text != response.text || it->second.exit_code != response.exit_code)) {
        errors.push_back("request r" + std::to_string(begin + k) +
                         " differs from an earlier response to the same query");
      }
    }
  }
  return kCycle;
}

/// Every distinct query's response bytes against the one-shot CLI render.
void check_one_shot(const ServeStream& stream,
                    const std::unordered_map<std::uint64_t, Answer>& answers,
                    std::vector<std::string>& errors) {
  std::vector<std::uint64_t> keys;
  keys.reserve(answers.size());
  for (const auto& entry : answers) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  const auto worker = [&] {
    for (std::size_t k = next++; k < keys.size(); k = next++) {
      const ServeRequest query = stream.query(keys[k]);
      const Answer& answer = answers.at(keys[k]);
      std::ostringstream out, err;
      const int code = subsidy::cli::run_cli(query.one_shot, out, err);
      if (!answer.ok || out.str() != answer.text || code != answer.exit_code) {
        const std::lock_guard<std::mutex> lock(mutex);
        errors.push_back("response to " + query.line + " differs from the one-shot render");
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCheckThreads; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
}

/// Ladder input: every served market under its spec, with up to 8 of its
/// equilibrium queries ordered by (cap, price) so consecutive nodes form
/// chains; the server replay sends the stream's first kLadderRequests lines.
LadderInput ladder_input(const ServeStream& stream) {
  const std::vector<std::string>& specs = stream.market_specs();
  LadderInput input;
  for (const std::string& spec : specs) {
    input.markets.push_back({spec, subsidy::cli::parse_market_spec(spec), {}});
  }
  for (std::uint64_t key = 0; key < ServeStream::kServeUniverse; ++key) {
    const server::Request request = server::parse_request(stream.query(key).line);
    if (request.op != "equilibrium") continue;
    const std::size_t m = static_cast<std::size_t>(
        std::find(specs.begin(), specs.end(), request.market) - specs.begin());
    std::vector<LadderNode>& nodes = input.markets[m].nodes;
    if (nodes.size() < 8) nodes.push_back({*request.price, *request.cap});
  }
  for (LadderMarket& market : input.markets) {
    std::sort(market.nodes.begin(), market.nodes.end(),
              [](const LadderNode& a, const LadderNode& b) {
                return std::tie(a.cap, a.price) < std::tie(b.cap, b.price);
              });
  }
  for (std::uint64_t k = 0; k < kLadderRequests; ++k) {
    input.requests.push_back(stream.request(k).line);
  }
  return input;
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome outcome;
  Timing timing;
  const Context context = build(options.seed);
  if (stop_after_setup(options)) return outcome;

  // A warm-up pass outside the timed window fills the cache: from then on
  // every pass starts from the state the previous one left.
  std::unordered_map<std::uint64_t, Answer> answers;
  Tracer tracer(options.trace);
  {
    Tracer off(false);
    Timing warmup;
    (void)run_pass(context, off, warmup, answers, outcome.errors);
  }
  const server::ServerStats before = context.engine->stats();
  Timing traced;
  timed_phases(options, timing, traced, tracer, [&](Tracer& spans, Timing& into) {
    return run_pass(context, spans, into, answers, outcome.errors);
  });
  const server::ServerStats after = context.engine->stats();

  if (!options.trace) {
    outcome.metrics = end_to_end(timing);
  } else {
    tracer.write(options.spans_out);
    outcome.metrics = run_ladder(ladder_input(ServeStream(options.seed)), outcome.errors);
    outcome.metrics.push_back(
        {"trace.overhead_frac", overhead(best_run_s(traced), best_run_s(timing)), "ratio"});
  }

  check_one_shot(ServeStream(options.seed), answers, outcome.errors);
  if (outcome.errors.size() > 20) outcome.errors.resize(20);

  outcome.attempted = timing.attempted;
  outcome.failed = timing.failed;
  const auto served = static_cast<double>(after.requests - before.requests);
  outcome.notes.push_back(
      "passes=" + std::to_string(timing.passes.size() + traced.passes.size()) +
      " requests_per_pass=" + std::to_string(kCycle) + " distinct=" +
      std::to_string(answers.size()) + " requests_per_batch=" +
      std::to_string(served / static_cast<double>(after.batches - before.batches)) +
      " exact_hit_frac=" + std::to_string(static_cast<double>(after.exact_hits - before.exact_hits) / served) +
      " jobs=" + std::to_string(kJobs));
  return outcome;
}

}  // namespace perfbench
