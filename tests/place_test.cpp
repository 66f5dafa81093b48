#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <future>
#include <map>
#include <numeric>
#include <string>
#include <type_traits>

#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"
#include "src/place/fm.hpp"
#include "src/place/placer.hpp"
#include "src/timing/incremental.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/util/executor.hpp"
#include "src/util/hash.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

Hypergraph flat(const std::vector<std::int64_t>& weights,
                const std::vector<std::vector<int>>& edges) {
  Hypergraph graph;
  graph.weights = weights;
  for (const auto& edge : edges) {
    graph.pins.insert(graph.pins.end(), edge.begin(), edge.end());
    graph.edge_begin.push_back(static_cast<int>(graph.pins.size()));
  }
  return graph;
}

FmResult fm_bipartition(const Hypergraph& graph,
                        const FmOptions& options = {}) {
  FmWorkspace workspace;
  return fm_bipartition(graph, options, workspace);
}

TEST(Fm, CutsCliquePairCleanly) {
  // Two 4-cliques joined by one edge: the optimal cut is 1.
  std::vector<std::int64_t> weights(8, 1);
  std::vector<std::vector<int>> edges;
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        edges.push_back({base + i, base + j});
      }
    }
  }
  edges.push_back({0, 4});
  const FmResult r = fm_bipartition(flat(weights, edges));
  EXPECT_EQ(r.cut, 1);
  // Each clique stays on one side.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(r.side[0], r.side[i]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(r.side[4], r.side[i]);
}

TEST(Fm, RespectsBalance) {
  std::vector<std::int64_t> weights(20, 1);
  std::vector<std::vector<int>> edges;
  for (int i = 0; i + 1 < 20; ++i) edges.push_back({i, i + 1});
  const FmResult r = fm_bipartition(flat(weights, edges));
  int side0 = 0;
  for (const auto s : r.side) side0 += (s == 0);
  EXPECT_GE(side0, 8);
  EXPECT_LE(side0, 12);
  EXPECT_LE(r.cut, 3);  // a chain has a 1-cut; FM should get close
}

TEST(Fm, SingleVertex) {
  const FmResult r = fm_bipartition(flat({1}, {}));
  EXPECT_EQ(r.cut, 0);
}

// The O(n^2) FM the gain-bucket implementation replaced, kept as the
// oracle: each step scans every vertex for the highest-gain unlocked,
// balance-legal move, ties to the lowest index.
FmResult reference_fm(const std::vector<std::int64_t>& weights,
                      const std::vector<std::vector<int>>& hyperedges,
                      const FmOptions& options = {}) {
  FmResult result;
  const std::size_t n = weights.size();
  result.side.assign(n, 0);
  if (n <= 1) return result;
  Rng rng(options.seed);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const std::int64_t total =
      std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
  std::int64_t w0 = 0;
  for (const int v : order) {
    const auto sv = static_cast<std::size_t>(v);
    if (w0 < total / 2) {
      result.side[sv] = 0;
      w0 += weights[sv];
    } else {
      result.side[sv] = 1;
    }
  }
  auto& side = result.side;
  const auto lo = static_cast<std::int64_t>(
      (0.5 - options.balance_tolerance) * static_cast<double>(total));
  const auto hi = static_cast<std::int64_t>(
      (0.5 + options.balance_tolerance) * static_cast<double>(total));
  for (int pass = 0; pass < options.max_passes; ++pass) {
    std::vector<std::vector<int>> pins(n);
    for (int e = 0; e < static_cast<int>(hyperedges.size()); ++e) {
      for (const int v : hyperedges[static_cast<std::size_t>(e)]) {
        pins[static_cast<std::size_t>(v)].push_back(e);
      }
    }
    std::int64_t side0 = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!side[v]) side0 += weights[v];
    }
    std::vector<std::array<int, 2>> count(hyperedges.size(), {0, 0});
    for (std::size_t e = 0; e < hyperedges.size(); ++e) {
      for (const int v : hyperedges[e]) ++count[e][side[v]];
    }
    std::vector<std::int64_t> gain(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      for (const int e : pins[v]) {
        if (count[e][side[v]] == 1) ++gain[v];
        if (count[e][1 - side[v]] == 0) --gain[v];
      }
    }
    std::vector<std::uint8_t> locked(n, 0);
    std::vector<int> moves;
    std::vector<std::int64_t> prefix;
    std::int64_t running = 0;
    for (std::size_t step = 0; step < n; ++step) {
      int best = -1;
      std::int64_t best_gain = 0;
      for (std::size_t v = 0; v < n; ++v) {
        if (locked[v]) continue;
        const std::int64_t moved =
            side[v] ? side0 + weights[v] : side0 - weights[v];
        if (moved < lo || moved > hi) continue;
        if (best < 0 || gain[v] > best_gain) {
          best = static_cast<int>(v);
          best_gain = gain[v];
        }
      }
      if (best < 0) break;
      const auto bv = static_cast<std::size_t>(best);
      const int from = side[bv];
      const int to = 1 - from;
      locked[bv] = 1;
      side0 += from ? weights[bv] : -weights[bv];
      auto bump = [&](int e, int only_side, int delta) {
        for (const int u : hyperedges[static_cast<std::size_t>(e)]) {
          if (!locked[u] && (only_side < 0 || side[u] == only_side)) {
            gain[u] += delta;
          }
        }
      };
      for (const int e : pins[bv]) {
        auto& c = count[static_cast<std::size_t>(e)];
        if (c[to] == 0) {
          bump(e, -1, +1);
        } else if (c[to] == 1) {
          bump(e, to, -1);
        }
        --c[from];
        ++c[to];
        if (c[from] == 0) {
          bump(e, -1, -1);
        } else if (c[from] == 1) {
          bump(e, from, +1);
        }
      }
      side[bv] = static_cast<std::uint8_t>(to);
      running += best_gain;
      moves.push_back(best);
      prefix.push_back(running);
    }
    std::int64_t best_running = 0;
    std::size_t best_prefix = 0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (prefix[i] > best_running) {
        best_running = prefix[i];
        best_prefix = i + 1;
      }
    }
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      side[static_cast<std::size_t>(moves[i - 1])] ^= 1;
    }
    if (best_running <= 0) break;
  }
  for (const auto& edge : hyperedges) {
    bool s0 = false, s1 = false;
    for (const int v : edge) (side[v] ? s1 : s0) = true;
    result.cut += (s0 && s1);
  }
  return result;
}

struct FmCase {
  std::vector<std::int64_t> weights;
  std::vector<std::vector<int>> edges;
  FmOptions options;
};

/// One random hypergraph per trial, cycling through the shapes that stress
/// the selection contract.
FmCase random_fm_case(Rng& rng, int trial) {
  FmCase c;
  const int shape = trial % 7;
  const std::size_t n =
      shape == 0 ? 2 : static_cast<std::size_t>(rng.range(3, 160));
  c.weights.assign(n, 1);
  if (shape == 2 || shape == 3) {
    for (auto& w : c.weights) w = rng.range(1, 40);  // mixed cell areas
  }
  if (shape == 3) {
    // A few heavy vertices: their moves hit the balance bound.
    for (int k = 0; k < 3; ++k) c.weights[rng.below(n)] = rng.range(50, 400);
  }
  if (shape != 4) {  // shape 4: no edges at all
    const auto num_edges = rng.range(0, static_cast<std::int64_t>(3 * n));
    for (std::int64_t e = 0; e < num_edges; ++e) {
      // Shape 5: only 2-pin edges on a few vertices, so many gains tie.
      const auto size = shape == 5 ? 2 : rng.range(1, 6);
      const std::size_t span = shape == 5 ? std::min<std::size_t>(n, 12) : n;
      std::vector<int> edge;
      for (std::int64_t k = 0; k < size; ++k) {
        edge.push_back(static_cast<int>(rng.below(span)));
      }
      std::sort(edge.begin(), edge.end());
      edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
      c.edges.push_back(std::move(edge));
    }
  }
  if (shape == 6) {
    // A few clock-like edges over at least half the vertices: they lock on
    // both sides early in a pass, so FM skips them as dead and may stop
    // the pass before every vertex has moved.
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    for (std::int64_t k = rng.range(1, 3); k > 0; --k) {
      rng.shuffle(all);
      std::vector<int> edge(
          all.begin(),
          all.begin() + rng.range(static_cast<std::int64_t>((n + 1) / 2),
                                  static_cast<std::int64_t>(n)));
      std::sort(edge.begin(), edge.end());
      c.edges.push_back(std::move(edge));
    }
  }
  c.options.seed = rng.next();
  c.options.balance_tolerance = trial % 4 == 0 ? 0.02 : 0.1;
  return c;
}

TEST(Fm, MatchesLinearScanReference) {
  Rng rng(2024);
  FmStats clock_like;
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const FmCase c = random_fm_case(rng, trial);
    const FmResult want = reference_fm(c.weights, c.edges, c.options);
    const FmResult got = fm_bipartition(flat(c.weights, c.edges), c.options);
    ASSERT_EQ(got.side, want.side);
    ASSERT_EQ(got.cut, want.cut);
    if (trial % 7 == 6) clock_like += got.stats;
  }
  // The clock-like shape does cut passes short.
  EXPECT_GT(clock_like.early_exits, 0);
  EXPECT_GT(clock_like.moves, 0);
}

TEST(Fm, ResultIndependentOfEdgeAndPinOrder) {
  Rng rng(2024);
  Rng shuffler(99);
  FmWorkspace workspace;  // reused across every trial's graph
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    FmCase c = random_fm_case(rng, trial);
    const FmResult want = fm_bipartition(flat(c.weights, c.edges), c.options);
    shuffler.shuffle(c.edges);
    for (auto& edge : c.edges) shuffler.shuffle(edge);
    const FmResult got =
        fm_bipartition(flat(c.weights, c.edges), c.options, workspace);
    ASSERT_EQ(got.side, want.side);
    ASSERT_EQ(got.cut, want.cut);
  }
}

TEST(Placer, AllCellsInsideDie) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 30;
  spec.num_gates = 120;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl);
  const Placement p = place(nl, lib());
  EXPECT_GT(p.width_um, 0);
  for (const CellId id : nl.live_cells()) {
    const CellKind kind = nl.cell(id).kind;
    if (kind == CellKind::kInput || kind == CellKind::kOutput ||
        kind == CellKind::kConst0 || kind == CellKind::kConst1) {
      continue;
    }
    const auto& [x, y] = p.pos[id.value()];
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, p.width_um);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, p.height_um);
  }
}

TEST(Placer, DieAreaMatchesUtilization) {
  testing::RandomCircuitSpec spec;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl);
  PlaceOptions options;
  options.utilization = 0.5;
  const Placement p = place(nl, lib(), options);
  const double cell_area = lib().total_area_um2(nl);
  EXPECT_NEAR(p.width_um * p.height_um, cell_area / 0.5,
              cell_area * 0.05);
}

TEST(Placer, MinCutBeatsRandomScatterOnWirelength) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 40;
  spec.num_gates = 240;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl);
  const Placement p = place(nl, lib());
  const double hpwl = p.total_hpwl_um(nl);

  // Reference: same die, random positions.
  Placement scatter = p;
  Rng rng(3);
  for (auto& [x, y] : scatter.pos) {
    x = rng.uniform() * p.width_um;
    y = rng.uniform() * p.height_um;
  }
  EXPECT_LT(hpwl, scatter.total_hpwl_um(nl) * 0.85);
}

TEST(Placer, NetCapIncludesWireAndPins) {
  Netlist nl("t");
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kInv, "g", {nl.cell(a).out});
  nl.add_output("o", nl.cell(g).out);
  const Placement p = place(nl, lib());
  const double cap = p.net_cap_ff(nl, lib(), nl.cell(a).out);
  EXPECT_GE(cap, lib().params(CellKind::kInv).input_cap_ff);
}

// Golden placements: hash of the bit patterns of every cell position when
// each paper design's flow output (all backends, paper defaults, stimulus
// seed 7, 16 cycles) is placed again at the default placer options. The
// table was recorded from the O(n^2) FM / whole-netlist hyperedge placer;
// the gain-bucket FM and region-local hyperedges must reproduce it bit for
// bit, since wire caps, and so every power number, follow the placement.
std::uint64_t placement_hash(const Placement& placement) {
  std::uint64_t hash = util::kFnvOffset;
  for (const auto& [x, y] : placement.pos) {
    hash = util::hash_combine(hash, std::bit_cast<std::uint64_t>(x));
    hash = util::hash_combine(hash, std::bit_cast<std::uint64_t>(y));
  }
  return hash;
}

// Golden flow results: one key per flow over every FlowResult field the
// flow computes except its stage times. Floats enter as bit patterns, the
// timing report as its timing_identity text, so a one-ulp move in any
// power group, any timing change or any changed count moves the key.
std::uint64_t result_key(const flow::FlowResult& r) {
  std::uint64_t hash = util::kFnvOffset;
  const auto mix = [&hash](auto value) {
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      hash = util::hash_combine(hash, std::bit_cast<std::uint64_t>(value));
    } else {
      hash = util::hash_combine(hash, static_cast<std::uint64_t>(value));
    }
  };
  mix(r.registers);
  mix(r.area_um2);
  mix(r.power.clock_mw);
  mix(r.power.seq_mw);
  mix(r.power.comb_mw);
  mix(r.power.leakage_mw);
  mix(flow::stream_hash(r.outputs));
  mix(util::fnv1a(timing_identity(r.timing)));
  mix(r.hold.buffers_inserted);
  mix(r.hold.passes);
  mix(r.p2_gating.p2_cg_cells);
  mix(r.p2_gating.p2_latches_gated);
  mix(r.m2.converted);
  mix(r.m2.kept);
  mix(r.ddcg.groups);
  mix(r.ddcg.latches_gated);
  mix(r.ddcg.xor_cells);
  mix(r.inserted_p2);
  mix(r.duplicated_icgs);
  mix(r.retime.latches_before);
  mix(r.retime.latches_after);
  mix(r.retime.moved);
  mix(r.synthesis_cg.icgs_inserted);
  mix(r.synthesis_cg.muxes_inserted);
  mix(r.synthesis_cg.registers_gated);
  mix(r.buffering.buffers_inserted);
  mix(r.buffering.nets_buffered);
  mix(r.pulse_generators);
  mix(r.dividers);
  return hash;
}

// Both golden tables come from one run of the 18 x 6 grid. A key is
// re-recorded only with a CHANGES.md line naming it and the cause.
TEST(Placer, BitIdenticalToParentOnPaperDesigns) {
  static const std::map<std::string, std::uint64_t> kGoldenResults = {
      {"s1196/ff", 0xe219db5703d5d8feULL},
      {"s1196/ms", 0xdc586ebe6e39358aULL},
      {"s1196/3p", 0xb03e5baca2c0fc17ULL},
      {"s1196/pl", 0x55f39ff5f8406b7fULL},
      {"s1196/2p", 0xc4a42b94e1a2cd92ULL},
      {"s1196/det", 0xb1f7f8536d616e2dULL},
      {"s1238/ff", 0xd2fb6b440dc07850ULL},
      {"s1238/ms", 0xef615bb59c055dc1ULL},
      {"s1238/3p", 0x7e55ab1cf8508c89ULL},
      {"s1238/pl", 0x681a7be058cdb320ULL},
      {"s1238/2p", 0x61359aeffe79546eULL},
      {"s1238/det", 0x2d42469abb9ff9ceULL},
      {"s1423/ff", 0x2a58839fbc068250ULL},
      {"s1423/ms", 0xf7ac5308d5a9e37bULL},
      {"s1423/3p", 0xf9115c5a8a254c53ULL},
      {"s1423/pl", 0x1a86228472d221c9ULL},
      {"s1423/2p", 0xa91d19091bc87dd5ULL},
      {"s1423/det", 0x73284abcbd2c5610ULL},
      {"s1488/ff", 0x1c72e4f1c8b59df4ULL},
      {"s1488/ms", 0x8d4f474d8d65c31aULL},
      {"s1488/3p", 0xf394ba45df83db6cULL},
      {"s1488/pl", 0x0a3ac6ea0220b06eULL},
      {"s1488/2p", 0x7022391de4246707ULL},
      {"s1488/det", 0x5fe2aa29d65956efULL},
      {"s5378/ff", 0xe67debf9f7077549ULL},
      {"s5378/ms", 0xea8cc2175c257abfULL},
      {"s5378/3p", 0x5ce2111f4340f809ULL},
      {"s5378/pl", 0x18a2e2fae67bd42bULL},
      {"s5378/2p", 0xf39c5641cc713394ULL},
      {"s5378/det", 0x0d58ecd19c7a291aULL},
      {"s9234/ff", 0xbc67cadf23f83001ULL},
      {"s9234/ms", 0x8353dced332ab14aULL},
      {"s9234/3p", 0xe13cc626ebaa6a99ULL},
      {"s9234/pl", 0xa906d93d9501e13bULL},
      {"s9234/2p", 0xe72f734686eba9bcULL},
      {"s9234/det", 0xf7b2259c1e675680ULL},
      {"s13207/ff", 0xcfa981a9d5b21640ULL},
      {"s13207/ms", 0xd02a27ce98d62917ULL},
      {"s13207/3p", 0x170bd39858b6f2c8ULL},
      {"s13207/pl", 0x420b164b0ed96101ULL},
      {"s13207/2p", 0x7197f2c6b828e073ULL},
      {"s13207/det", 0x73d2ee963994cdd2ULL},
      {"s15850/ff", 0xc3278783b3dda68eULL},
      {"s15850/ms", 0x6e00fb5f32cac2cdULL},
      {"s15850/3p", 0xf8926fcc3a2ef1dcULL},
      {"s15850/pl", 0x856f443b7e1365afULL},
      {"s15850/2p", 0x8649202af7216bceULL},
      {"s15850/det", 0x4b3fa5c866a42716ULL},
      {"s35932/ff", 0x254a44a185a9728bULL},
      {"s35932/ms", 0x92bfaff7d7ee89fcULL},
      {"s35932/3p", 0x82c8b7c5a8b0f315ULL},
      {"s35932/pl", 0xd5ed733681e1a8efULL},
      {"s35932/2p", 0x93afda38329b7ed7ULL},
      {"s35932/det", 0x928a5e8157076964ULL},
      {"s38417/ff", 0xde42f5b0443727b0ULL},
      {"s38417/ms", 0xbb56ee3e957885dfULL},
      {"s38417/3p", 0x0db66d26eb73c19dULL},
      {"s38417/pl", 0x81763eea29c75a04ULL},
      {"s38417/2p", 0x13aafee411f56448ULL},
      {"s38417/det", 0xda01ad5d3896353cULL},
      {"s38584/ff", 0x260fafc82e81ff55ULL},
      {"s38584/ms", 0x625760ca4c48930fULL},
      {"s38584/3p", 0xb197c1dada6cc8e5ULL},
      {"s38584/pl", 0x349e0af4b69479e5ULL},
      {"s38584/2p", 0xc97e510e42a368a5ULL},
      {"s38584/det", 0xf33c097e11677994ULL},
      {"AES/ff", 0xb4d2971a7df05a87ULL},
      {"AES/ms", 0x066290248778c026ULL},
      {"AES/3p", 0x69fd19433f387348ULL},
      {"AES/pl", 0x7e25abb9ec72c9cdULL},
      {"AES/2p", 0xf565b75c3824a1e5ULL},
      {"AES/det", 0x11d9c3a841cc18b5ULL},
      {"DES3/ff", 0xdcf90d97a34bb70cULL},
      {"DES3/ms", 0x7de7a386af406b39ULL},
      {"DES3/3p", 0x09851fb2ac3f21deULL},
      {"DES3/pl", 0xb7d53ae8e1dab9d4ULL},
      {"DES3/2p", 0x38ea173839b8af21ULL},
      {"DES3/det", 0xefaddb09516ce8f5ULL},
      {"SHA256/ff", 0xdee73d17d27f2b26ULL},
      {"SHA256/ms", 0x01714d23dca98b72ULL},
      {"SHA256/3p", 0x4639eeede240d8eeULL},
      {"SHA256/pl", 0x753a38c9aa9ccc32ULL},
      {"SHA256/2p", 0xfafa66c66adbfa15ULL},
      {"SHA256/det", 0xfc261e45a859dc42ULL},
      {"MD5/ff", 0x57e0d70d8acf46f9ULL},
      {"MD5/ms", 0x287acc81ddcac144ULL},
      {"MD5/3p", 0x527be076d33a6d91ULL},
      {"MD5/pl", 0x2ef3315e909297e4ULL},
      {"MD5/2p", 0x34e01674f5e8ce72ULL},
      {"MD5/det", 0x604ef31a11e61438ULL},
      {"Plasma/ff", 0x80ffd63b7ad8b8c2ULL},
      {"Plasma/ms", 0x4ae9e25549549509ULL},
      {"Plasma/3p", 0x9a23727a2cbd9048ULL},
      {"Plasma/pl", 0x3502634ecbe033c2ULL},
      {"Plasma/2p", 0x8f2ea958c777a4e1ULL},
      {"Plasma/det", 0x494101e4f0033d65ULL},
      {"RISCV/ff", 0x495a4daa1724c2f8ULL},
      {"RISCV/ms", 0x1b64619c5d1a76e0ULL},
      {"RISCV/3p", 0xd2d711d6cbcb222dULL},
      {"RISCV/pl", 0x1fd7160a3f60e41eULL},
      {"RISCV/2p", 0xbde189aeaf859449ULL},
      {"RISCV/det", 0x0b76efffae9f3d2fULL},
      {"ArmM0/ff", 0xa8b2b923e95f249cULL},
      {"ArmM0/ms", 0xad32820080409f29ULL},
      {"ArmM0/3p", 0xda86a881b2e3209fULL},
      {"ArmM0/pl", 0x8d253c56e0b0ab4dULL},
      {"ArmM0/2p", 0x1fd3f760ce4bb060ULL},
      {"ArmM0/det", 0xf3ed4386fce41a90ULL},
  };
  static const std::map<std::string, std::uint64_t> kGolden = {
      {"s1196/ff", 0x4d47aaa02071ad34ULL},
      {"s1196/ms", 0x0c959677e5007b7eULL},
      {"s1196/3p", 0x09dac9950196b7ceULL},
      {"s1196/pl", 0xf8fc2599507b603fULL},
      {"s1196/2p", 0xf518a9c22325a60bULL},
      {"s1196/det", 0xc29fdd1b32e1052cULL},
      {"s1238/ff", 0xbb883c73bebe6290ULL},
      {"s1238/ms", 0xb28ef8009321ad00ULL},
      {"s1238/3p", 0x7314070da2662427ULL},
      {"s1238/pl", 0x173547d7b81d2372ULL},
      {"s1238/2p", 0xb35c8ce450c20595ULL},
      {"s1238/det", 0x7a12036ac3948ccdULL},
      {"s1423/ff", 0xff45f7ebce140da2ULL},
      {"s1423/ms", 0xc0637c19fc347cf2ULL},
      {"s1423/3p", 0x134f26b4636d997fULL},
      {"s1423/pl", 0x7547f1f645867509ULL},
      {"s1423/2p", 0x8dab06e9dff796a4ULL},
      {"s1423/det", 0xf6db74e8036351ffULL},
      {"s1488/ff", 0x4a9bf59c3582e048ULL},
      {"s1488/ms", 0x8c120693bede0f39ULL},
      {"s1488/3p", 0x8d9881c273bdb5e2ULL},
      {"s1488/pl", 0xd08dd7eb5b3eb12cULL},
      {"s1488/2p", 0xbf3a9f9e1469cb0cULL},
      {"s1488/det", 0x502f17fc4d318640ULL},
      {"s5378/ff", 0x43a7e5f25cc5729dULL},
      {"s5378/ms", 0x14c0654b4cf03764ULL},
      {"s5378/3p", 0xd775ff378b71df52ULL},
      {"s5378/pl", 0xd6515fac86017532ULL},
      {"s5378/2p", 0xe489477231f1b54fULL},
      {"s5378/det", 0xff3cc8df3367a538ULL},
      {"s9234/ff", 0x71ce60209286e945ULL},
      {"s9234/ms", 0x4717c62ef5629204ULL},
      {"s9234/3p", 0xa9f0c82de142f362ULL},
      {"s9234/pl", 0xe9750f45140604c0ULL},
      {"s9234/2p", 0x3f3ba102bf1ceb30ULL},
      {"s9234/det", 0xef913a8eeaba64dfULL},
      {"s13207/ff", 0xf53881ae4f7d9d52ULL},
      {"s13207/ms", 0x0092ca8094f3013dULL},
      {"s13207/3p", 0xc76cb036587baefcULL},
      {"s13207/pl", 0x7ae5435dd3b7f956ULL},
      {"s13207/2p", 0x614a4d931cfcd04dULL},
      {"s13207/det", 0x4a0874bdd5b17674ULL},
      {"s15850/ff", 0xbd6bfcf260769615ULL},
      {"s15850/ms", 0x75d8e1f2b7dc01aaULL},
      {"s15850/3p", 0x261aa405a2039eeaULL},
      {"s15850/pl", 0x310abf05f2321401ULL},
      {"s15850/2p", 0x4aef6b0f4c453ba6ULL},
      {"s15850/det", 0x01dc567c90873f0dULL},
      {"s35932/ff", 0xa6c2f162e71db7b3ULL},
      {"s35932/ms", 0x2b53d704c548de27ULL},
      {"s35932/3p", 0x7948cdb2b302e807ULL},
      {"s35932/pl", 0x66d69fa9c8020a53ULL},
      {"s35932/2p", 0x93a381716c6ceb0fULL},
      {"s35932/det", 0x2ac90af99a7f654cULL},
      {"s38417/ff", 0x500b29a019356eb4ULL},
      {"s38417/ms", 0xc4b43d44cc383c14ULL},
      {"s38417/3p", 0x953adeeae604636dULL},
      {"s38417/pl", 0x7f3fa2ce02697284ULL},
      {"s38417/2p", 0x4b1dacabcd1ad12cULL},
      {"s38417/det", 0x07c48bbea40d1b44ULL},
      {"s38584/ff", 0x74d467f0754c8e87ULL},
      {"s38584/ms", 0xd44ca3abaff873ecULL},
      {"s38584/3p", 0xdf7933a9934f5e38ULL},
      {"s38584/pl", 0xc6701ac7dcb2dfbaULL},
      {"s38584/2p", 0xfa4df38a54987d75ULL},
      {"s38584/det", 0xf8e1dda5e7db9435ULL},
      {"AES/ff", 0x6be2faafddcfe73aULL},
      {"AES/ms", 0x97d4faf9cf0c4559ULL},
      {"AES/3p", 0xc94dfadba2d254b4ULL},
      {"AES/pl", 0x2df36bb4d0094bc8ULL},
      {"AES/2p", 0xc35af069c0af8527ULL},
      {"AES/det", 0x4e88cfe9a840a304ULL},
      {"DES3/ff", 0x0cb9ef74d581fee9ULL},
      {"DES3/ms", 0xb07e55dfd0fcda75ULL},
      {"DES3/3p", 0x39e2a762b366dd69ULL},
      {"DES3/pl", 0x7b1b06fd299e773fULL},
      {"DES3/2p", 0x6561521b608f4f32ULL},
      {"DES3/det", 0x20cc273dae1d8148ULL},
      {"SHA256/ff", 0x690ecc289173a658ULL},
      {"SHA256/ms", 0x50d2421953c784f0ULL},
      {"SHA256/3p", 0xa0e96ad8b334d7a0ULL},
      {"SHA256/pl", 0xb4e314509188863bULL},
      {"SHA256/2p", 0x91796f05f981936dULL},
      {"SHA256/det", 0x0571a21ea60ef995ULL},
      {"MD5/ff", 0x598cb36d5e49f7e9ULL},
      {"MD5/ms", 0xe4b22ed72cf3c7cfULL},
      {"MD5/3p", 0xd86377ff8f8745b0ULL},
      {"MD5/pl", 0xba80be2362910246ULL},
      {"MD5/2p", 0x625fa61223fd9744ULL},
      {"MD5/det", 0xd45ac560b60705ceULL},
      {"Plasma/ff", 0x5c6db25bf509757cULL},
      {"Plasma/ms", 0x6d8239b0cc7c17adULL},
      {"Plasma/3p", 0x501573c73be46b83ULL},
      {"Plasma/pl", 0xd5c7b30e035684e3ULL},
      {"Plasma/2p", 0x0e88194b624593dbULL},
      {"Plasma/det", 0x32685baab25b809fULL},
      {"RISCV/ff", 0xdf83acde74e72f58ULL},
      {"RISCV/ms", 0x7cb2db11f33fb255ULL},
      {"RISCV/3p", 0xa1f2b5e7a3a8790eULL},
      {"RISCV/pl", 0x52a2ba9012e705aaULL},
      {"RISCV/2p", 0x54a0b43b3bdb462eULL},
      {"RISCV/det", 0xd45a5f6e2c4d18e6ULL},
      {"ArmM0/ff", 0xd19bc9d384c798c7ULL},
      {"ArmM0/ms", 0x6a02db8ee5b0e6b9ULL},
      {"ArmM0/3p", 0xc38b4464a9927e28ULL},
      {"ArmM0/pl", 0x3de08299851959c6ULL},
      {"ArmM0/2p", 0xbf7a56bc26d0dc84ULL},
      {"ArmM0/det", 0x9a23ca4f34a7b5a0ULL},
  };
  flow::RunPlan plan;
  plan.styles.clear();
  for (int s = 0; s < flow::kNumDesignStyles; ++s) {
    plan.styles.push_back(static_cast<flow::DesignStyle>(s));
  }
  plan.cycles = 16;
  util::Executor executor;
  const std::vector<flow::MatrixResult> results =
      flow::run_matrix(plan, executor);
  // Every early return happens before the first hashing task, which reads
  // `results` through a reference.
  ASSERT_EQ(results.size(), 18u * flow::kNumDesignStyles);
  for (const flow::MatrixResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  std::vector<std::future<std::uint64_t>> hashes;
  for (const flow::MatrixResult& r : results) {
    hashes.push_back(executor.submit([&r] {
      CellLibrary library = CellLibrary::nominal_28nm();
      flow::backend_for(r.task.style).adjust_library(library);
      return placement_hash(place(r.result.netlist, library, PlaceOptions{}));
    }));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const flow::MatrixTask& task = results[i].task;
    const std::string key =
        task.benchmark + "/" +
        std::string(flow::backend_for(task.style).token());
    const std::uint64_t got = executor.wait(std::move(hashes[i]));
    const auto it = kGolden.find(key);
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxULL},", key.c_str(),
                  static_cast<unsigned long long>(got));
    if (it == kGolden.end()) {
      ADD_FAILURE() << "no golden hash for " << line;
      continue;
    }
    EXPECT_EQ(it->second, got) << "placement changed: " << line;

    const std::uint64_t result = result_key(results[i].result);
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxULL},", key.c_str(),
                  static_cast<unsigned long long>(result));
    const auto golden = kGoldenResults.find(key);
    if (golden == kGoldenResults.end()) {
      ADD_FAILURE() << "no golden result key for " << line;
      continue;
    }
    EXPECT_EQ(golden->second, result) << "flow result changed: " << line;
  }
}

}  // namespace
}  // namespace tp
