#include <gtest/gtest.h>

#include <iterator>

#include "src/phase/assignment.hpp"
#include "src/phase/ilp_formulation.hpp"
#include "src/util/hash.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"

namespace tp {
namespace {

/// Builds a RegisterGraph directly (no netlist) for solver testing.
RegisterGraph make_graph(int num_regs,
                         std::vector<std::pair<int, int>> edges,
                         std::vector<std::vector<int>> pi_fanout = {}) {
  RegisterGraph g;
  for (int i = 0; i < num_regs; ++i) {
    g.regs.push_back(CellId{static_cast<std::uint32_t>(i)});
    g.node_of.emplace(static_cast<std::uint32_t>(i), i);
  }
  g.fanout.resize(static_cast<std::size_t>(num_regs));
  for (const auto& [u, v] : edges) {
    g.fanout[static_cast<std::size_t>(u)].push_back(v);
  }
  for (std::size_t p = 0; p < pi_fanout.size(); ++p) {
    g.data_pis.push_back(CellId{static_cast<std::uint32_t>(1000 + p)});
  }
  g.pi_fanout = std::move(pi_fanout);
  return g;
}

/// Brute force over all K assignments; returns the minimum objective.
int brute_force_objective(const RegisterGraph& g) {
  const std::size_t n = g.regs.size();
  int best = 1 << 30;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<std::uint8_t> k(n);
    for (std::size_t i = 0; i < n; ++i) k[i] = (mask >> i) & 1;
    best = std::min(best, assignment_from_k(g, std::move(k)).num_inserted());
  }
  return best;
}

TEST(PhaseAssignment, LinearPipelineUsesOneExtraPerTwoStages) {
  // Fig. 1: a depth-d linear pipeline (PI -> ff0 -> ... -> ff_{d-1}) needs
  // exactly ceil(d / 2) inserted latches, counting the PI rule.
  for (int depth = 1; depth <= 12; ++depth) {
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < depth; ++i) edges.push_back({i, i + 1});
    const RegisterGraph g = make_graph(depth, edges, {{0}});
    const PhaseAssignment a = assign_phases(g);
    EXPECT_TRUE(a.optimal);
    validate_assignment(g, a);
    // d + 1 boundaries (PI + d FFs) alternate; every other one needs a p2.
    EXPECT_EQ(a.num_inserted(), (depth + 1) / 2) << "depth " << depth;
  }
}

TEST(PhaseAssignment, SelfLoopForcesBackToBack) {
  const RegisterGraph g = make_graph(1, {{0, 0}});
  const PhaseAssignment a = assign_phases(g);
  EXPECT_EQ(a.g[0], 1);
  EXPECT_EQ(a.num_inserted(), 1);
  validate_assignment(g, a);
}

TEST(PhaseAssignment, TwoNodeCycleNeedsOneInsertion) {
  // ff0 <-> ff1: one of them can be a single p1 latch.
  const RegisterGraph g = make_graph(2, {{0, 1}, {1, 0}});
  const PhaseAssignment a = assign_phases(g);
  EXPECT_TRUE(a.optimal);
  EXPECT_EQ(a.num_inserted(), 1);
  validate_assignment(g, a);
}

TEST(PhaseAssignment, PiPenaltyCanChangeOptimum) {
  // Single FF fed by a PI: making it p1 costs an inserted PI latch, making
  // it p3 costs its own p2 latch — either way the optimum is 1.
  const RegisterGraph g = make_graph(1, {}, {{0}});
  const PhaseAssignment a = assign_phases(g);
  EXPECT_TRUE(a.optimal);
  EXPECT_EQ(a.num_inserted(), 1);
  validate_assignment(g, a);
}

TEST(PhaseAssignment, IndependentFfsWithoutPisAreFree) {
  const RegisterGraph g = make_graph(4, {});
  const PhaseAssignment a = assign_phases(g);
  EXPECT_TRUE(a.optimal);
  EXPECT_EQ(a.num_inserted(), 0);  // all single p1 latches
  validate_assignment(g, a);
}

TEST(PhaseAssignment, ValidateRejectsConsecutiveP1) {
  const RegisterGraph g = make_graph(2, {{0, 1}});
  PhaseAssignment bad;
  bad.k = {1, 1};
  bad.g = {0, 1};  // node 0 claims single latch while feeding a p1 node
  bad.pi_g = {};
  EXPECT_THROW(validate_assignment(g, bad), Error);
}

TEST(PhaseAssignment, ValidateRejectsSingleP3) {
  const RegisterGraph g = make_graph(1, {});
  PhaseAssignment bad;
  bad.k = {0};
  bad.g = {0};
  bad.pi_g = {};
  EXPECT_THROW(validate_assignment(g, bad), Error);
}

TEST(PhaseAssignment, GreedyIsValidButMaybeSuboptimal) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.range(3, 14));
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (rng.chance(0.15)) edges.push_back({u, v});
      }
    }
    const RegisterGraph g = make_graph(n, edges);
    const PhaseAssignment greedy = assign_phases_greedy(g);
    validate_assignment(g, greedy);
    EXPECT_GE(greedy.num_inserted(), brute_force_objective(g));
  }
}

class RandomPhaseTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPhaseTest, AllSolversMatchBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const int n = static_cast<int>(rng.range(2, 14));
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    if (rng.chance(0.15)) edges.push_back({u, u});  // self-loops
    for (int v = 0; v < n; ++v) {
      if (rng.chance(0.18)) edges.push_back({u, v});
    }
  }
  const int num_pis = static_cast<int>(rng.range(0, 3));
  std::vector<std::vector<int>> pi_fanout;
  for (int p = 0; p < num_pis; ++p) {
    std::vector<int> f;
    for (int v = 0; v < n; ++v) {
      if (rng.chance(0.3)) f.push_back(v);
    }
    pi_fanout.push_back(std::move(f));
  }
  const RegisterGraph g = make_graph(n, edges, pi_fanout);

  const int reference = brute_force_objective(g);

  const PhaseAssignment ilp = assign_phases_ilp(g, 30.0);
  EXPECT_TRUE(ilp.optimal);
  validate_assignment(g, ilp);
  EXPECT_EQ(ilp.num_inserted(), reference) << "ILP, n=" << n;

  const PhaseAssignment spec = assign_phases_specialized(g, 30.0);
  EXPECT_TRUE(spec.optimal);
  validate_assignment(g, spec);
  EXPECT_EQ(spec.num_inserted(), reference) << "specialized, n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPhaseTest, ::testing::Range(0, 80));

/// Random register graph for the search-budget regression: sparse FF
/// edges plus PIs that couple many nodes, the shape (like s5378's) on
/// which branch and bound exhausts its step budget.
RegisterGraph budget_graph(std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.range(30, 200));
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    const auto fanout = rng.range(0, 2);
    for (std::int64_t k = 0; k < fanout; ++k) {
      edges.push_back(
          {u, static_cast<int>(rng.below(static_cast<std::uint64_t>(n)))});
    }
  }
  std::vector<std::vector<int>> pi_fanout(
      static_cast<std::size_t>(rng.range(4, 40)));
  for (auto& fanout : pi_fanout) {
    const auto size = rng.range(1, 8);
    for (std::int64_t k = 0; k < size; ++k) {
      fanout.push_back(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
    }
  }
  return make_graph(n, std::move(edges), std::move(pi_fanout));
}

TEST(PhaseAssignment, SearchBudgetResultsMatchRecorded) {
  // Hashes of (K, G, PI G, optimal) for budget_graph(1..24), recorded from
  // the branch and bound without subtree memoization. Most searches run
  // out of their step budget, so the kept assignment is whatever the
  // search held at that exact step: any drift in step accounting shows.
  static const std::uint64_t kRecorded[] = {
      0x8c8bb840595947cfULL,  // seed 1: n 58, budget exhausted
      0x3079a829de2cfc26ULL,  // seed 2: n 43, optimal
      0xd3f2ba2997b2a4ecULL,  // seed 3: n 167, budget exhausted
      0xf0a2faad67ece14eULL,  // seed 4: n 142, budget exhausted
      0x5b6d67ac87eed669ULL,  // seed 5: n 94, optimal
      0x0f58f9ab58cb8f99ULL,  // seed 6: n 182, budget exhausted
      0x267fbdf62a0bd8e9ULL,  // seed 7: n 160, optimal
      0xafbbb7d52363f9edULL,  // seed 8: n 198, budget exhausted
      0x84801f6633b8b4b4ULL,  // seed 9: n 73, budget exhausted
      0x1b28d290e882a866ULL,  // seed 10: n 56, optimal
      0x6917206b061a128dULL,  // seed 11: n 94, optimal
      0x0dfff8e5e76dad49ULL,  // seed 12: n 71, optimal
      0x8f811299474dd5daULL,  // seed 13: n 116, budget exhausted
      0xa7452285f1da9402ULL,  // seed 14: n 116, budget exhausted
      0xe50a0fa40505d6c9ULL,  // seed 15: n 190, budget exhausted
      0x1e640ef56471f981ULL,  // seed 16: n 193, budget exhausted
      0xc5ff045c7ebcb744ULL,  // seed 17: n 176, budget exhausted
      0x91d209c0deab3f64ULL,  // seed 18: n 56, budget exhausted
      0xbc852bb0ad753e15ULL,  // seed 19: n 142, budget exhausted
      0xcd741e6259477014ULL,  // seed 20: n 48, optimal
      0x31bb127a9f665365ULL,  // seed 21: n 64, optimal
      0x2b2bee33b39de4a1ULL,  // seed 22: n 102, optimal
      0x97982cb381a80339ULL,  // seed 23: n 67, budget exhausted
      0xee738392d3f42d0bULL,  // seed 24: n 113, budget exhausted
  };
  for (std::uint64_t seed = 1; seed <= std::size(kRecorded); ++seed) {
    const PhaseAssignment a = assign_phases(budget_graph(seed));
    std::uint64_t hash = util::kFnvOffset;
    for (const auto bits : {&a.k, &a.g, &a.pi_g}) {
      for (const std::uint8_t bit : *bits) {
        hash = util::hash_combine(hash, bit);
      }
    }
    hash = util::hash_combine(hash, a.optimal);
    EXPECT_EQ(hash, kRecorded[seed - 1]) << "seed " << seed;
  }
}

TEST(PhaseAssignment, LargeLayeredGraphSolvesQuickly) {
  // AES-like layered pipeline: 12 layers of 64 FFs, dense layer-to-layer
  // edges. The specialized solver must handle it within the time budget and
  // pick alternate layers.
  Rng rng(99);
  const int layers = 12, width = 64;
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      for (int j = 0; j < 4; ++j) {
        edges.push_back({l * width + i,
                         (l + 1) * width +
                             static_cast<int>(rng.below(width))});
      }
    }
  }
  const RegisterGraph g = make_graph(layers * width, edges);
  Stopwatch timer;
  const PhaseAssignment a = assign_phases(g, {.time_limit_s = 10.0});
  EXPECT_LT(timer.seconds(), 10.0);
  validate_assignment(g, a);
  // Alternate layers single-latch: about half the FFs need insertion; the
  // local search must land within 2% of that.
  EXPECT_LE(a.num_inserted(), layers * width / 2 + width / 8);
}

}  // namespace
}  // namespace tp
