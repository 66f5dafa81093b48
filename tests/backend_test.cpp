// Tests for the conversion-backend registry (src/flow/backend.hpp): token
// and id lookup, serialization-tag stability, cache-key divergence between
// backends, the serve protocol's "backend" field, and the non-vacuity
// contract — every backend's seeded violation is caught by the rule it
// promises.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/check/checker.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"
#include "src/flow/serialize.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/util/strcat.hpp"

namespace tp {
namespace {

using flow::ConversionBackend;
using flow::DesignStyle;
using flow::FlowContext;
using flow::FlowOptions;
using flow::FlowResult;
using flow::backend_for;
using flow::backend_registry;
using flow::find_backend;

// ---------------------------------------------------------------------------
// Registry lookup.

TEST(BackendRegistry, OneBackendPerDesignStyle) {
  const auto& registry = backend_registry();
  ASSERT_EQ(registry.size(),
            static_cast<std::size_t>(flow::kNumDesignStyles));
  // Registry order is DesignStyle order — plan expansion and the serve
  // status list rely on it being deterministic.
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(static_cast<int>(registry[i]->id()), static_cast<int>(i));
  }
}

TEST(BackendRegistry, LookupByIdAndToken) {
  for (const ConversionBackend* backend : backend_registry()) {
    EXPECT_EQ(&backend_for(backend->id()), backend);
    EXPECT_EQ(find_backend(backend->token()), backend);
  }
  EXPECT_EQ(find_backend("bogus"), nullptr);
  EXPECT_EQ(find_backend(""), nullptr);
}

TEST(BackendRegistry, NamesAreUnique) {
  std::set<std::string> tokens, displays;
  for (const ConversionBackend* backend : backend_registry()) {
    EXPECT_TRUE(tokens.insert(std::string(backend->token())).second)
        << "duplicate token " << backend->token();
    EXPECT_TRUE(displays.insert(std::string(backend->display_name())).second)
        << "duplicate display name " << backend->display_name();
    EXPECT_FALSE(backend->description().empty());
    EXPECT_FALSE(backend->rule_set().empty());
  }
}

// ---------------------------------------------------------------------------
// Serialization-tag stability. These spellings are on the wire (serve
// jobs, cache fingerprints, result JSON) and in every CLI invocation:
// changing one silently orphans cached results and breaks clients, so the
// expected values are written out literally.

TEST(BackendRegistry, TokensAreStable) {
  const std::vector<std::string> expected = {"ff", "ms", "3p",
                                             "pl", "2p", "det"};
  const auto& registry = backend_registry();
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(registry[i]->token(), expected[i]);
  }
}

TEST(Serialize, StyleTokenRoundTrip) {
  for (const ConversionBackend* backend : backend_registry()) {
    EXPECT_EQ(flow::style_token(backend->id()), backend->token());
    DesignStyle parsed = DesignStyle::kFlipFlop;
    ASSERT_TRUE(flow::style_from_name(backend->token(), &parsed));
    EXPECT_EQ(parsed, backend->id());
  }
  DesignStyle parsed = DesignStyle::kFlipFlop;
  EXPECT_FALSE(flow::style_from_name("nope", &parsed));
}

// ---------------------------------------------------------------------------
// Cache keys: two requests identical except for the backend must never
// share a cache entry.

TEST(CacheKey, DivergesWhenOnlyBackendDiffers) {
  std::set<std::string> digests;
  for (const ConversionBackend* backend : backend_registry()) {
    serve::CacheKey key;
    key.netlist_hash = 0x1234abcd;
    key.style = backend->id();
    key.options_hash = 99;
    key.workload = "paper";
    key.cycles = 64;
    key.seed = 7;
    key.lanes = 2;
    EXPECT_TRUE(digests.insert(key.digest_hex()).second)
        << "cache-key collision for backend " << backend->token();
  }
}

// ---------------------------------------------------------------------------
// Serve protocol: the "backend" field and the structured rejection of
// unknown tokens.

TEST(Protocol, ParsesBackendField) {
  serve::Request request;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"id":"a","type":"convert","benchmark":"s1196","backend":"2p"})",
      &request, &error))
      << error;
  EXPECT_EQ(request.style, DesignStyle::kTwoPhase);
}

TEST(Protocol, RejectsUnknownBackendWithTokenList) {
  serve::Request request;
  std::string error;
  EXPECT_FALSE(serve::parse_request(
      R"({"id":"a","type":"convert","benchmark":"s1196","backend":"x9"})",
      &request, &error));
  EXPECT_NE(error.find("x9"), std::string::npos) << error;
  // The structured error enumerates every registered token.
  for (const ConversionBackend* backend : backend_registry()) {
    EXPECT_NE(error.find(std::string(backend->token())), std::string::npos)
        << "token " << backend->token() << " missing from: " << error;
  }
}

TEST(Protocol, MatrixSweepParsesBackendsArray) {
  serve::Request request;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"id":"a","type":"matrix_sweep","benchmarks":["s1196"],)"
      R"("backends":["ff","2p","det"]})",
      &request, &error))
      << error;
  ASSERT_EQ(request.styles.size(), 3u);
  EXPECT_EQ(request.styles[0], DesignStyle::kFlipFlop);
  EXPECT_EQ(request.styles[1], DesignStyle::kTwoPhase);
  EXPECT_EQ(request.styles[2], DesignStyle::kDetFf);
}

TEST(Protocol, RoundTripsCanonicalBackendField) {
  serve::Request request;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"id":"a","type":"convert","benchmark":"s1196","backend":"pl"})",
      &request, &error))
      << error;
  const std::string json = serve::request_to_json(request);
  EXPECT_NE(json.find("\"backend\":\"pl\""), std::string::npos) << json;
  serve::Request reparsed;
  ASSERT_TRUE(serve::parse_request(json, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.style, request.style);
}

TEST(Server, StatusListsEveryBackendToken) {
  serve::ServerOptions options;
  options.threads = 1;
  serve::Server server(std::move(options));
  const std::string status = server.status_json();
  EXPECT_NE(status.find("\"backends\":"), std::string::npos) << status;
  for (const ConversionBackend* backend : backend_registry()) {
    EXPECT_NE(status.find(cat("\"", backend->token(), "\"")),
              std::string::npos)
        << "token " << backend->token() << " missing from: " << status;
  }
}

// ---------------------------------------------------------------------------
// Seeded violations: convert a real benchmark with each backend, plant the
// backend's canonical illegality, and require the promised rule to fire.
// The pre-plant report must be quiet on that rule — otherwise detection
// would be vacuous.

Netlist converted_netlist(const ConversionBackend& backend,
                          const circuits::Benchmark& bench) {
  Netlist netlist = bench.netlist;
  infer_clock_gating(netlist);
  const FlowOptions options = FlowOptions::fast();
  const CellLibrary& library = CellLibrary::nominal_28nm();
  FlowResult scratch;
  FlowContext ctx{
      .netlist = netlist,
      .options = options,
      .library = library,
      .result = scratch,
      .checkpoint = [](std::string_view) {},
      .activity = [] { return ActivityStats{}; },  // fast(): DDCG is off
  };
  backend.convert(ctx);
  return netlist;
}

TEST(SeededViolation, EveryBackendDetectsItsPlant) {
  const circuits::Benchmark bench = circuits::make_benchmark("s1423");
  for (const ConversionBackend* backend : backend_registry()) {
    SCOPED_TRACE(std::string(backend->token()));
    Netlist netlist = converted_netlist(*backend, bench);
    const check::CheckReport before = check::run_checks(netlist);
    const check::RuleId rule = backend->seed_violation(netlist);
    EXPECT_EQ(before.count(rule), 0)
        << "rule " << check::rule_name(rule)
        << " already fired before the plant";
    const check::CheckReport after = check::run_checks(netlist);
    EXPECT_GT(after.count(rule), 0)
        << "planted " << check::rule_name(rule) << " went undetected";
  }
}

// ---------------------------------------------------------------------------
// Stream equivalence: the new backends must behave identically to the FF
// baseline under the shared stimulus (the paper's validation protocol).

TEST(BackendStreams, TwoPhaseAndDetMatchFlipFlop) {
  flow::RunPlan plan;
  plan.benchmarks = {"s1196"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kTwoPhase,
                 DesignStyle::kDetFf};
  plan.cycles = 48;
  plan.options = FlowOptions::fast();
  const std::vector<flow::MatrixResult> results = run_matrix(plan);
  ASSERT_EQ(results.size(), 3u);
  for (const flow::MatrixResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  EXPECT_TRUE(streams_equal(results[0].result.outputs,
                            results[1].result.outputs))
      << "2p stream diverges from the FF baseline";
  EXPECT_TRUE(streams_equal(results[0].result.outputs,
                            results[2].result.outputs))
      << "det stream diverges from the FF baseline";
}

}  // namespace
}  // namespace tp
