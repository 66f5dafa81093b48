// Tests for the conversion-as-a-service stack: shared hashing, the JSON
// reader/writer, the canonical netlist hash, the content-addressed result
// cache (LRU + persistence + corruption rejection), the line protocol,
// and the server wave engine's byte-identity and job-file contracts.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "src/circuits/benchmark.hpp"
#include "src/flow/serialize.hpp"
#include "src/netlist/hash.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"

namespace fs = std::filesystem;
using namespace tp;
using namespace tp::serve;

namespace {

/// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

// ---------------------------------------------------------------------------
// util/hash: the shared primitives everything keys on.

TEST(Hash, Fnv1aChainsAcrossCalls) {
  EXPECT_EQ(util::fnv1a("netlist"),
            util::fnv1a("list", util::fnv1a("net")));
  EXPECT_NE(util::fnv1a("ab"), util::fnv1a("ba"));
  EXPECT_EQ(util::fnv1a(""), util::kFnvOffset);
}

TEST(Hash, CombineIsOrderDependent) {
  const std::uint64_t a = 0x1234, b = 0x5678;
  EXPECT_NE(util::hash_combine(util::hash_combine(1, a), b),
            util::hash_combine(util::hash_combine(1, b), a));
  EXPECT_NE(util::splitmix64(0), 0u);
}

TEST(Hash, StreamHashSeesRowShape) {
  EXPECT_NE(util::stream_hash({{1, 2}, {3}}),
            util::stream_hash({{1}, {2, 3}}));
  EXPECT_EQ(util::stream_hash({{1, 2}, {3}}),
            util::stream_hash({{1, 2}, {3}}));
}

// ---------------------------------------------------------------------------
// netlist_hash: canonical content addressing of a design.

TEST(NetlistHash, InsertionOrderInvariant) {
  // The same two-gate design built in two different cell orders.
  const auto build = [](bool flipped) {
    Netlist n(flipped ? "other-name" : "design");  // name is not content
    const NetId a = n.cell(n.add_input("a")).out;
    const NetId b = n.cell(n.add_input("b")).out;
    NetId x = n.add_net("x");
    NetId y = n.add_net("y");
    if (flipped) {
      n.add_cell(CellKind::kOr2, "g2", {a, b}, y);
      n.add_cell(CellKind::kAnd2, "g1", {a, b}, x);
    } else {
      n.add_cell(CellKind::kAnd2, "g1", {a, b}, x);
      n.add_cell(CellKind::kOr2, "g2", {a, b}, y);
    }
    n.add_output("o1", x);
    n.add_output("o2", y);
    return n;
  };
  Netlist first = build(false);
  Netlist second = build(true);
  EXPECT_EQ(netlist_hash(first), netlist_hash(second));
}

TEST(NetlistHash, StructureChangesTheHash) {
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const std::uint64_t base = netlist_hash(bench.netlist);
  EXPECT_EQ(base, netlist_hash(bench.netlist));  // stable
  EXPECT_NE(base,
            netlist_hash(circuits::make_benchmark("s1238").netlist));

  Netlist copy = bench.netlist;
  const std::vector<CellId> regs = copy.registers();
  ASSERT_FALSE(regs.empty());
  copy.set_init(regs.front(), !copy.cell(regs.front()).init);
  EXPECT_NE(base, netlist_hash(copy));
}

// ---------------------------------------------------------------------------
// util/json: reader robustness + writer determinism.

TEST(Json, ParsesNestedDocument) {
  util::Json doc;
  std::string error;
  ASSERT_TRUE(util::Json::parse(
      R"({"a":[1,2.5,-3],"s":"q\"A\n","b":true,"n":null,"o":{"k":7}})",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("a")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("a")->items()[1].as_number(), 2.5);
  EXPECT_EQ(doc.find("s")->as_string(), "q\"A\n");
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_EQ(doc.find("o")->get_u64("k", 0), 7u);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInputCleanly) {
  const char* bad[] = {
      "",        "{",        "{\"a\":}",   "[1,]", "tru",
      "\"open",  "{}extra",  "{\"a\" 1}",  "nan",  "{\"a\":1,}",
  };
  for (const char* text : bad) {
    util::Json doc;
    std::string error;
    EXPECT_FALSE(util::Json::parse(text, &doc, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Json, RejectsAbsurdNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  util::Json doc;
  std::string error;
  EXPECT_FALSE(util::Json::parse(deep, &doc, &error));
}

TEST(Json, WriterRoundTripsExactly) {
  util::JsonWriter w;
  w.begin_object();
  w.key("d").value(0.1);
  w.key("u").value(std::uint64_t{18446744073709551615ULL});
  w.key("s").value("a\"b\\c\n");
  w.key("arr").begin_array().value(1).value(false).null().end_array();
  w.end_object();
  const std::string text = w.take();

  util::Json doc;
  std::string error;
  ASSERT_TRUE(util::Json::parse(text, &doc, &error)) << error;
  EXPECT_DOUBLE_EQ(doc.find("d")->as_number(), 0.1);
  EXPECT_EQ(doc.find("s")->as_string(), "a\"b\\c\n");

  util::JsonWriter again;
  again.begin_object();
  again.key("d").value(0.1);
  again.key("u").value(std::uint64_t{18446744073709551615ULL});
  again.key("s").value("a\"b\\c\n");
  again.key("arr").begin_array().value(1).value(false).null().end_array();
  again.end_object();
  EXPECT_EQ(text, again.take());  // same values, same bytes
}

// ---------------------------------------------------------------------------
// ResultCache: keying, LRU, persistence, corruption.

namespace {

CacheKey test_key(std::uint64_t seed) {
  CacheKey key;
  key.netlist_hash = 0xfeedULL;
  key.style = flow::DesignStyle::kThreePhase;
  key.options_hash = 0xbeefULL;
  key.workload = "paper-default";
  key.cycles = 96;
  key.seed = seed;
  key.lanes = 1;
  return key;
}

}  // namespace

TEST(Cache, KeyDigestCoversEveryField) {
  const CacheKey base = test_key(7);
  EXPECT_EQ(base.digest_hex(), test_key(7).digest_hex());
  EXPECT_EQ(base.digest_hex().size(), 32u);

  CacheKey k = base;
  k.netlist_hash ^= 1;
  EXPECT_NE(base.digest(), k.digest());
  k = base;
  k.style = flow::DesignStyle::kFlipFlop;
  EXPECT_NE(base.digest(), k.digest());
  k = base;
  k.options_hash ^= 1;
  EXPECT_NE(base.digest(), k.digest());
  k = base;
  k.workload = "coremark";
  EXPECT_NE(base.digest(), k.digest());
  k = base;
  k.cycles ^= 1;
  EXPECT_NE(base.digest(), k.digest());
  k = base;
  k.seed ^= 1;
  EXPECT_NE(base.digest(), k.digest());
  k = base;
  k.lanes ^= 1;
  EXPECT_NE(base.digest(), k.digest());
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  CacheOptions options;
  options.memory_entries = 2;
  ResultCache cache(options);
  cache.put(test_key(1), "one");
  cache.put(test_key(2), "two");
  ASSERT_TRUE(cache.get(test_key(1)).has_value());  // 1 now most recent
  cache.put(test_key(3), "three");                  // evicts 2
  EXPECT_EQ(cache.memory_size(), 2u);
  EXPECT_EQ(cache.get(test_key(1)).value_or(""), "one");
  EXPECT_EQ(cache.get(test_key(3)).value_or(""), "three");
  EXPECT_FALSE(cache.get(test_key(2)).has_value());  // no disk tier: gone
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, DiskTierSurvivesRestartAndEviction) {
  const fs::path dir = scratch_dir("cache_persist");
  CacheOptions options;
  options.dir = dir.string();
  options.memory_entries = 1;
  {
    ResultCache cache(options);
    cache.put(test_key(1), "payload-one");
    cache.put(test_key(2), "payload-two");  // evicts 1, flushing it first
    EXPECT_EQ(cache.get(test_key(1)).value_or(""), "payload-one");
    EXPECT_GE(cache.stats().disk_hits, 1u);
  }  // destructor flushes the rest
  ResultCache reborn(options);
  EXPECT_EQ(reborn.get(test_key(1)).value_or(""), "payload-one");
  EXPECT_EQ(reborn.get(test_key(2)).value_or(""), "payload-two");
  EXPECT_EQ(reborn.stats().disk_hits, 2u);
  EXPECT_EQ(reborn.stats().misses, 0u);
  // Promoted once: a repeat is a memory hit, not a second disk read.
  EXPECT_EQ(reborn.get(test_key(2)).value_or(""), "payload-two");
  EXPECT_GE(reborn.stats().memory_hits, 1u);
}

TEST(Cache, RejectsCorruptAndTruncatedEntries) {
  const fs::path dir = scratch_dir("cache_corrupt");
  CacheOptions options;
  options.dir = dir.string();
  const std::string hex = test_key(5).digest_hex();
  {
    ResultCache cache(options);
    cache.put(test_key(5), "precious");
    cache.flush();
  }
  const fs::path file = dir / (hex + ".tpc");
  ASSERT_TRUE(fs::exists(file));

  {  // Truncate mid-payload.
    const std::string full = slurp(file);
    std::ofstream(file, std::ios::binary)
        << full.substr(0, full.size() - 3);
    ResultCache cache(options);
    EXPECT_FALSE(cache.get(test_key(5)).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_FALSE(fs::exists(file));  // deleted, will be recomputed
  }
  {  // Wrong magic.
    std::ofstream(file, std::ios::binary) << "NOTACACHE v9 garbage";
    ResultCache cache(options);
    EXPECT_FALSE(cache.get(test_key(5)).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_FALSE(fs::exists(file));
  }
}

// ---------------------------------------------------------------------------
// Protocol: round-trips and hostile input.

TEST(Protocol, RoundTripsEveryJobType) {
  const char* lines[] = {
      R"({"id":"c1","type":"convert","benchmark":"s5378","backend":"ms",)"
      R"("preset":"fast","workload":"coremark","cycles":48,"seed":11,)"
      R"("lanes":4,"check_rules":true})",
      R"({"id":"p1","type":"power_eval","benchmark":"s1238"})",
      R"({"id":"l1","type":"lint","benchmark":"s1196","backend":"3p",)"
      R"("preset":"fast","cycles":16,"check_analysis":true})",
      R"({"id":"m1","type":"matrix_sweep","benchmarks":["s1196","s1238"],)"
      R"("backends":["ff","3p"],"preset":"no-gating"})",
      R"({"id":"s1","type":"status"})",
      R"({"id":"d1","type":"shutdown"})",
  };
  for (const char* line : lines) {
    Request first, second;
    std::string error;
    ASSERT_TRUE(parse_request(line, &first, &error)) << line << ": " << error;
    const std::string wire = request_to_json(first);
    ASSERT_TRUE(parse_request(wire, &second, &error)) << wire << ": " << error;
    EXPECT_EQ(wire, request_to_json(second)) << line;  // fixed point
    EXPECT_EQ(first.id, second.id);
    EXPECT_EQ(first.type, second.type);
    EXPECT_EQ(first.benchmark, second.benchmark);
    EXPECT_EQ(first.style, second.style);
    EXPECT_EQ(first.benchmarks, second.benchmarks);
    EXPECT_EQ(first.styles, second.styles);
    EXPECT_EQ(first.spec.preset, second.spec.preset);
    EXPECT_EQ(first.spec.workload, second.spec.workload);
    EXPECT_EQ(first.spec.cycles, second.spec.cycles);
    EXPECT_EQ(first.spec.seed, second.spec.seed);
    EXPECT_EQ(first.spec.lanes, second.spec.lanes);
    EXPECT_EQ(first.spec.check_rules, second.spec.check_rules);
    EXPECT_EQ(first.spec.check_analysis, second.spec.check_analysis);
  }
}

TEST(Protocol, DefaultsApplyWhenFieldsOmitted) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"type":"convert","benchmark":"s1238"})",
                            &req, &error))
      << error;
  EXPECT_EQ(req.style, flow::DesignStyle::kThreePhase);
  EXPECT_EQ(req.spec.preset, "paper");
  EXPECT_EQ(req.spec.cycles, 96u);
  EXPECT_EQ(req.spec.seed, 7u);
  EXPECT_EQ(req.spec.lanes, 1u);

  ASSERT_TRUE(parse_request(R"({"type":"matrix_sweep"})", &req, &error));
  EXPECT_TRUE(req.benchmarks.empty());  // empty = every built-in
  ASSERT_EQ(req.styles.size(), 3u);     // ff/ms/3p default grid
}

TEST(Protocol, RetiredStyleFieldsRejectedNamingBackend) {
  // Without the check, a request that still says "style" would silently
  // run the default 3-P backend (and "styles" the default grid).
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {R"({"id":"a","type":"convert","benchmark":"s1196","style":"ms"})",
       "'backend'"},
      {R"({"id":"b","type":"lint","benchmark":"s1196","backend":"ms",)"
       R"("style":"ms"})",
       "'backend'"},
      {R"({"id":"c","type":"matrix_sweep","styles":["ff"]})", "'backends'"},
  };
  for (const auto& c : cases) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_request(c.line, &req, &error)) << c.line;
    EXPECT_NE(error.find(c.field), std::string::npos) << error;
    EXPECT_NE(error.find("valid backends"), std::string::npos) << error;
    EXPECT_FALSE(req.id.empty()) << c.line;
  }
}

TEST(Protocol, RejectsHostileRequestsWithRecoverableId) {
  const char* bad[] = {
      "not json at all",
      R"([1,2,3])",
      R"({"id":"x","type":"frobnicate"})",
      R"({"id":"x","type":"convert"})",                       // no benchmark
      R"({"id":"x","type":"convert","benchmark":"a","backend":"zz"})",
      R"({"id":"x","type":"convert","benchmark":"a","lanes":65})",
      R"({"id":"x","type":"convert","benchmark":"a","cycles":0})",
      R"({"id":"x","type":"convert","benchmark":"a","preset":"??"})",
  };
  for (const char* line : bad) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_request(line, &req, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // The id survives a post-parse validation failure for correlation.
  Request req;
  std::string error;
  ASSERT_FALSE(parse_request(R"({"id":"x","type":"frobnicate"})", &req,
                             &error));
  EXPECT_EQ(req.id, "x");
}

// ---------------------------------------------------------------------------
// Server wave engine: cache keying across thread counts, byte identity,
// failure containment.

namespace {

constexpr const char* kConvertLine =
    R"({"id":"c","type":"convert","benchmark":"s1238","backend":"3p",)"
    R"("preset":"fast","cycles":16})";

ServerOptions quick_options(std::size_t threads) {
  ServerOptions options;
  options.threads = threads;
  return options;
}

/// The response with its "cached" flag normalized away, so a hit and a
/// fresh computation can be compared byte-for-byte.
std::string normalize_cached(std::string line) {
  const std::string warm = "\"cached\":true";
  const std::size_t at = line.find(warm);
  if (at != std::string::npos) {
    line.replace(at, warm.size(), "\"cached\":false");
  }
  return line;
}

}  // namespace

TEST(Server, CacheHitIsByteIdenticalAcrossThreadCounts) {
  Server one(quick_options(1));
  Server four(quick_options(4));

  const Outcome cold_one = one.handle_line(kConvertLine);
  const Outcome cold_four = four.handle_line(kConvertLine);
  ASSERT_TRUE(cold_one.ok);
  EXPECT_FALSE(cold_one.cached);
  // Same computation on 1 and 4 threads: identical response bytes.
  EXPECT_EQ(cold_one.line, cold_four.line);

  const Outcome warm = four.handle_line(kConvertLine);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);
  // The hit serves the same bytes the fresh run produced.
  EXPECT_EQ(normalize_cached(warm.line), normalize_cached(cold_four.line));
  EXPECT_EQ(four.counters().cache.memory_hits, 1u);
}

TEST(Server, CacheKeysKeepTheirContentHashes) {
  // Cache keys embed each design's netlist_hash(); entries already on disk
  // keep hitting only while these stay put. Both values were recorded
  // before the designs moved into the process-wide store.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"s1196", 0x98f190a693c88fc3ULL}, {"DES3", 0x217ab2d173577145ULL}};
  for (const auto& [name, hash] : pinned) {
    SCOPED_TRACE(name);
    EXPECT_EQ(circuits::stored_benchmark(name).content_hash, hash);
    EXPECT_EQ(netlist_hash(circuits::make_benchmark(name).netlist), hash);
  }
  // A served convert is stored under exactly that address.
  const std::string line =
      R"({"id":"k","type":"convert","benchmark":"s1196","backend":"ms",)"
      R"("preset":"fast","cycles":16})";
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(line, &req, &error)) << error;
  flow::FlowOptions options;
  flow::options_from_preset(req.spec.preset, &options);
  CacheKey key;
  key.netlist_hash = pinned[0].second;
  key.style = req.style;
  key.options_hash = flow::options_hash(options);
  key.workload = req.spec.workload;
  key.cycles = req.spec.cycles;
  key.seed = req.spec.seed;
  key.lanes = req.spec.lanes;
  Server server(quick_options(2));
  ASSERT_FALSE(server.cache().get(key).has_value());
  const Outcome cold = server.handle_line(line);
  ASSERT_TRUE(cold.ok) << cold.line;
  EXPECT_TRUE(server.cache().get(key).has_value());
}

TEST(Server, PowerEvalSharesTheConvertCacheEntry) {
  Server server(quick_options(2));
  ASSERT_TRUE(server.handle_line(kConvertLine).ok);
  const Outcome power = server.handle_line(
      R"({"id":"p","type":"power_eval","benchmark":"s1238","backend":"3p",)"
      R"("preset":"fast","cycles":16})");
  ASSERT_TRUE(power.ok);
  EXPECT_TRUE(power.cached);  // same computation, reduced payload
  EXPECT_NE(power.line.find("\"power_mw\""), std::string::npos);
  EXPECT_EQ(power.line.find("\"stream_hash\""), std::string::npos);
}

TEST(Server, LintJobSharesTheFullCheckConvertCacheEntry) {
  Server server(quick_options(2));
  // A convert with both check passes enabled computes the same wave a lint
  // job forces, so the lint answer must come straight from its cache entry.
  const Outcome convert = server.handle_line(
      R"({"id":"c","type":"convert","benchmark":"s1238","backend":"3p",)"
      R"("preset":"fast","cycles":16,"check_rules":true,)"
      R"("check_analysis":true})");
  ASSERT_TRUE(convert.ok);
  const Outcome lint = server.handle_line(
      R"({"id":"l","type":"lint","benchmark":"s1238","backend":"3p",)"
      R"("preset":"fast","cycles":16})");
  ASSERT_TRUE(lint.ok);
  EXPECT_TRUE(lint.cached);  // same computation, reduced payload
  EXPECT_NE(lint.line.find("\"lint_clean\":true"), std::string::npos)
      << lint.line;
  EXPECT_NE(lint.line.find("\"lint_stages\""), std::string::npos);
  // Identity fields survive the reduction; heavyweight ones do not.
  EXPECT_NE(lint.line.find("\"benchmark\":\"s1238\""), std::string::npos);
  EXPECT_EQ(lint.line.find("\"stream_hash\""), std::string::npos);
  EXPECT_EQ(lint.line.find("\"power_mw\""), std::string::npos);
}

TEST(Server, SweepDedupesAndFailsPerCell) {
  Server server(quick_options(2));
  const Outcome out = server.handle_line(
      R"({"id":"m","type":"matrix_sweep",)"
      R"("benchmarks":["s1238","s1238","no-such-circuit"],)"
      R"("backends":["3p"],"preset":"fast","cycles":16})");
  EXPECT_TRUE(out.ok);  // the sweep answers even with a failing cell
  util::Json doc;
  std::string error;
  ASSERT_TRUE(util::Json::parse(out.line, &doc, &error)) << error;
  const util::Json* payload = doc.find("payload");
  ASSERT_NE(payload, nullptr);
  ASSERT_EQ(payload->items().size(), 3u);
  EXPECT_TRUE(payload->items()[0].get_bool("ok", false));
  EXPECT_TRUE(payload->items()[1].get_bool("ok", false));
  // Duplicate cells serve identical payload objects.
  EXPECT_EQ(payload->items()[0].get_u64("registers", 0),
            payload->items()[1].get_u64("registers", 1));
  EXPECT_FALSE(payload->items()[2].get_bool("ok", true));
  EXPECT_NE(payload->items()[2].get_string("error", "").find(
                "no-such-circuit"),
            std::string::npos);
  EXPECT_EQ(server.counters().cells_deduped, 1u);
  EXPECT_EQ(server.counters().cells_failed, 1u);
}

TEST(Server, MalformedLineYieldsErrorResponse) {
  Server server(quick_options(1));
  const Outcome out = server.handle_line("{{{ definitely not json");
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.line.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(server.counters().malformed, 1u);
}

TEST(Server, StatusReportsCounters) {
  Server server(quick_options(1));
  ASSERT_TRUE(server.handle_line(kConvertLine).ok);
  const Outcome status = server.handle_line(R"({"id":"s","type":"status"})");
  ASSERT_TRUE(status.ok);
  util::Json doc;
  std::string error;
  ASSERT_TRUE(util::Json::parse(status.line, &doc, &error)) << error;
  const util::Json* body = doc.find("status");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->get_u64("completed", 0), 1u);
  ASSERT_NE(body->find("cells"), nullptr);
  EXPECT_EQ(body->find("cells")->get_u64("computed", 0), 1u);
}

// ---------------------------------------------------------------------------
// Transport loop: job files in, results out, shutdown and signal exits.

TEST(Server, JobFileIntakeEndToEnd) {
  const fs::path jobs = scratch_dir("serve_jobs");
  const fs::path cache = scratch_dir("serve_jobs_cache");
  ServerOptions options;
  options.threads = 2;
  options.drop_dir = jobs.string();
  options.cache.dir = cache.string();
  options.poll_ms = 10;
  Server server(options);
  std::thread daemon([&server] { EXPECT_EQ(server.serve(), 0); });

  // Atomic drop: write elsewhere, rename into place.
  const auto drop = [&](const std::string& stem, const std::string& text) {
    const fs::path tmp = jobs / (stem + ".tmp");
    std::ofstream(tmp, std::ios::binary) << text << "\n";
    fs::rename(tmp, jobs / (stem + ".job"));
  };
  drop("a", kConvertLine);
  drop("bad", "not json");
  for (int i = 0; i < 500 && !fs::exists(jobs / "a.result"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  drop("quit", R"({"id":"q","type":"shutdown"})");
  daemon.join();

  ASSERT_TRUE(fs::exists(jobs / "a.result"));
  const std::string answer = slurp(jobs / "a.result");
  EXPECT_NE(answer.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(answer.find("\"registers\""), std::string::npos);
  ASSERT_TRUE(fs::exists(jobs / "bad.result"));
  EXPECT_NE(slurp(jobs / "bad.result").find("\"ok\":false"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(jobs / "a.job"));  // consumed
  EXPECT_TRUE(server.shutdown_requested());
  // The computed result was flushed to the persistent tier.
  EXPECT_FALSE(fs::is_empty(cache));
}

TEST(Server, StopFlagAbortsServeWith130) {
  const fs::path jobs = scratch_dir("serve_stop");
  std::atomic<bool> stop{false};
  ServerOptions options;
  options.threads = 1;
  options.drop_dir = jobs.string();
  options.poll_ms = 10;
  options.stop = &stop;
  Server server(options);
  std::thread daemon([&server] { EXPECT_EQ(server.serve(), 130); });
  stop.store(true);
  daemon.join();
  EXPECT_FALSE(server.shutdown_requested());
}
