#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/circuits/benchmark.hpp"
#include "src/equiv/aig.hpp"
#include "src/equiv/cex.hpp"
#include "src/equiv/sat.hpp"
#include "src/equiv/sec.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/det_ff.hpp"
#include "src/transform/p2_gating.hpp"
#include "src/transform/pulsed_latch.hpp"
#include "src/transform/two_phase.hpp"
#include "src/util/rng.hpp"

namespace tp::equiv {
namespace {

// --- AIG ------------------------------------------------------------------

TEST(Aig, ConstantFolding) {
  Aig g;
  const Lit a = g.add_input();
  EXPECT_EQ(g.land(a, kLitTrue), a);
  EXPECT_EQ(g.land(kLitTrue, a), a);
  EXPECT_EQ(g.land(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.land(a, a), a);
  EXPECT_EQ(g.land(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(g.num_nodes(), 2u);  // constant + input, no AND created
}

TEST(Aig, StructuralHashing) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit ab = g.land(a, b);
  EXPECT_EQ(g.land(a, b), ab);
  EXPECT_EQ(g.land(b, a), ab) << "commuted operands must hash identically";
  const std::size_t nodes = g.num_nodes();
  EXPECT_EQ(g.lor(lit_not(a), lit_not(b)), lit_not(ab))
      << "De Morgan duals share the same AND node";
  EXPECT_EQ(g.num_nodes(), nodes);
}

TEST(Aig, OperatorTruthTables) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit s = g.add_input();
  const Lit lxor = g.lxor(a, b);
  const Lit lmux = g.lmux(s, a, b);
  // Drive each input with its truth-table pattern; each of the 8 low bits of
  // a word is one assignment (s, a, b).
  const std::uint64_t wa = 0b11001100, wb = 0b10101010, ws = 0b11110000;
  std::vector<std::uint64_t> words;
  g.simulate(std::vector<std::uint64_t>{wa, wb, ws}, words);
  EXPECT_EQ(Aig::word_of(words, lxor) & 0xFF, (wa ^ wb) & 0xFF);
  EXPECT_EQ(Aig::word_of(words, lmux) & 0xFF,
            ((ws & wa) | (~ws & wb)) & 0xFF);
  EXPECT_EQ(Aig::word_of(words, kLitTrue), ~0ull);
}

TEST(Aig, ComposeSubstitutesInputs) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit f = g.lor(g.land(a, b), g.lxor(a, b));  // = a | b
  const std::size_t frozen = g.num_nodes();

  // Substituting constants folds the whole cone away.
  const std::vector<Lit> to_const{kLitTrue, kLitFalse};
  auto map = g.compose(frozen, to_const);
  EXPECT_EQ(lit_xor(map[lit_node(f)], lit_neg(f)), kLitTrue);

  // Substituting the same inputs reproduces the same literals (strash).
  const std::vector<Lit> identity{a, b};
  map = g.compose(frozen, identity);
  EXPECT_EQ(lit_xor(map[lit_node(f)], lit_neg(f)), f);
}

// --- SAT ------------------------------------------------------------------

TEST(Sat, UnitPropagationChain) {
  SatSolver s;
  const int a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause({SatSolver::pos_lit(a)});
  s.add_clause({SatSolver::neg_lit(a), SatSolver::pos_lit(b)});
  s.add_clause({SatSolver::neg_lit(b), SatSolver::pos_lit(c)});
  EXPECT_EQ(s.solve(), SatResult::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.model_value(c));
  const std::vector<int> assume{SatSolver::neg_lit(c)};
  EXPECT_EQ(s.solve(assume), SatResult::kUnsat);
}

TEST(Sat, SmallUnsatCore) {
  SatSolver s;
  const int a = s.new_var(), b = s.new_var();
  s.add_clause({SatSolver::pos_lit(a), SatSolver::pos_lit(b)});
  s.add_clause({SatSolver::pos_lit(a), SatSolver::neg_lit(b)});
  s.add_clause({SatSolver::neg_lit(a), SatSolver::pos_lit(b)});
  s.add_clause({SatSolver::neg_lit(a), SatSolver::neg_lit(b)});
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(Sat, RandomThreeSatAgreesWithBruteForce) {
  Rng rng(42);
  for (int instance = 0; instance < 60; ++instance) {
    const int num_vars = 6 + static_cast<int>(rng.below(4));  // 6..9
    const int num_clauses = 5 + static_cast<int>(rng.below(36));
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(num_vars)));
        clause.push_back(rng.chance(0.5) ? SatSolver::pos_lit(v)
                                         : SatSolver::neg_lit(v));
      }
      clauses.push_back(clause);
    }

    bool satisfiable = false;
    for (std::uint32_t bits = 0; bits < (1u << num_vars) && !satisfiable;
         ++bits) {
      satisfiable = std::all_of(
          clauses.begin(), clauses.end(), [&](const std::vector<int>& cl) {
            return std::any_of(cl.begin(), cl.end(), [&](int lit) {
              const bool value = (bits >> (lit >> 1)) & 1;
              return (lit & 1) ? !value : value;
            });
          });
    }

    SatSolver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    for (const auto& clause : clauses) s.add_clause(clause);
    const SatResult result = s.solve();
    ASSERT_EQ(result, satisfiable ? SatResult::kSat : SatResult::kUnsat)
        << "instance " << instance;
    if (result == SatResult::kSat) {
      // The model must actually satisfy every clause.
      for (const auto& clause : clauses) {
        EXPECT_TRUE(std::any_of(
            clause.begin(), clause.end(), [&](int lit) {
              return s.model_value(lit >> 1) != ((lit & 1) != 0);
            }));
      }
    }
  }
}

bool satisfied_by(const std::vector<int>& clause, std::uint32_t bits) {
  return std::any_of(clause.begin(), clause.end(), [&](int lit) {
    return (((bits >> (lit >> 1)) & 1) != 0) != ((lit & 1) != 0);
  });
}

TEST(Sat, IncrementalQueriesAgreeWithBruteForce) {
  // One solver answers a stream of queries the way the SEC engine uses it:
  // clauses arrive between calls, each call carries its own assumptions, and
  // some calls ask "can a and b differ?" through a miter switched on by an
  // activation literal and retired by a unit clause afterwards.
  constexpr int kVars = 12;
  Rng rng(2024);
  SatSolver s;
  for (int v = 0; v < kVars; ++v) s.new_var();
  const auto random_lit = [&] {
    const int v = static_cast<int>(rng.below(kVars));
    return rng.chance(0.5) ? SatSolver::pos_lit(v) : SatSolver::neg_lit(v);
  };
  std::vector<std::vector<int>> clauses;
  int sat_answers = 0, unsat_answers = 0;
  for (int query = 0; query < 200; ++query) {
    if (rng.chance(0.25)) {
      clauses.push_back({random_lit(), random_lit(), random_lit()});
      s.add_clause(clauses.back());
    }
    // Constraints of this query only, over the problem variables: each
    // assumption as a unit clause, the miter as a != b.
    std::vector<std::vector<int>> query_clauses;
    std::vector<int> assume;
    int activation = -1;
    if (rng.chance(0.5)) {
      const int a = random_lit(), b = random_lit();
      activation = SatSolver::pos_lit(s.new_var());
      s.add_clause({SatSolver::negate(activation), a, b});
      s.add_clause({SatSolver::negate(activation), SatSolver::negate(a),
                    SatSolver::negate(b)});
      assume.push_back(activation);
      query_clauses.push_back({a, b});
      query_clauses.push_back({SatSolver::negate(a), SatSolver::negate(b)});
    }
    const int num_assumptions = static_cast<int>(rng.below(4));
    for (int k = 0; k < num_assumptions; ++k) {
      assume.push_back(random_lit());
      query_clauses.push_back({assume.back()});
    }

    bool satisfiable = false;
    for (std::uint32_t bits = 0; bits < (1u << kVars) && !satisfiable;
         ++bits) {
      const auto holds = [&](const std::vector<int>& cl) {
        return satisfied_by(cl, bits);
      };
      satisfiable = std::all_of(clauses.begin(), clauses.end(), holds) &&
                    std::all_of(query_clauses.begin(), query_clauses.end(),
                                holds);
    }

    const SatResult result = s.solve(assume);
    ASSERT_EQ(result, satisfiable ? SatResult::kSat : SatResult::kUnsat)
        << "query " << query;
    if (result == SatResult::kSat) {
      ++sat_answers;
      std::uint32_t model = 0;
      for (int v = 0; v < kVars; ++v) {
        if (s.model_value(v)) model |= 1u << v;
      }
      for (const auto& clause : clauses) {
        EXPECT_TRUE(satisfied_by(clause, model)) << "query " << query;
      }
      for (const auto& clause : query_clauses) {
        EXPECT_TRUE(satisfied_by(clause, model)) << "query " << query;
      }
    } else {
      ++unsat_answers;
    }
    if (activation >= 0) s.add_clause({SatSolver::negate(activation)});
  }
  // The stream must exercise both answers, or it checks half the solver.
  EXPECT_GE(sat_answers, 10);
  EXPECT_GE(unsat_answers, 10);
}

TEST(Sat, ConflictLimitGivesUnknownAndSolverStaysUsable) {
  // Five pigeons in four holes, every clause guarded by `g`: unsatisfiable
  // under g, but no single conflict refutes it.
  constexpr int kPigeons = 5, kHoles = 4;
  SatSolver s;
  const int g = SatSolver::pos_lit(s.new_var());
  std::vector<std::vector<int>> in(kPigeons, std::vector<int>(kHoles));
  for (auto& row : in) {
    for (int& var : row) var = s.new_var();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<int> somewhere{SatSolver::negate(g)};
    for (int h = 0; h < kHoles; ++h) {
      somewhere.push_back(SatSolver::pos_lit(in[p][h]));
    }
    s.add_clause(somewhere);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p = 0; p < kPigeons; ++p) {
      for (int q = p + 1; q < kPigeons; ++q) {
        s.add_clause({SatSolver::negate(g), SatSolver::neg_lit(in[p][h]),
                      SatSolver::neg_lit(in[q][h])});
      }
    }
  }
  const std::vector<int> under_g{g};
  s.set_conflict_limit(1);
  EXPECT_EQ(s.solve(under_g), SatResult::kUnknown);
  EXPECT_EQ(s.num_conflicts, 1);
  // The budget ran out mid-search; the next queries start clean.
  const std::vector<int> without_g{SatSolver::negate(g)};
  ASSERT_EQ(s.solve(without_g), SatResult::kSat);
  EXPECT_FALSE(s.model_value(g >> 1));
  s.set_conflict_limit(0);
  EXPECT_EQ(s.solve(under_g), SatResult::kUnsat);
  EXPECT_EQ(s.solve(), SatResult::kSat);
}

// --- counterexample plumbing ----------------------------------------------

TEST(Cex, MapDataInputsMatchesByName) {
  Netlist a("a"), b("b");
  a.add_input("x");
  a.add_input("y");
  a.add_input("z");
  b.add_input("z");
  b.add_input("x");
  b.add_input("y");
  const std::vector<std::size_t> map = map_data_inputs(a, b);
  // map[j] = index in `a` of b's j-th input.
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map[0], 2u);
  EXPECT_EQ(map[1], 0u);
  EXPECT_EQ(map[2], 1u);
}

// --- one-cycle machine vs. the event-driven simulator ---------------------

/// Evaluates `machine` concretely for `cycles` random cycles, starting from
/// the simulator's reset state, and compares every primary output against
/// simulate_outputs() — the bridge that justifies trusting SEC proofs.
void expect_machine_matches_simulator(const Netlist& netlist, int cycles,
                                      std::uint64_t seed) {
  Aig aig;
  const std::size_t num_pi = netlist.data_inputs().size();
  std::vector<Lit> pi_prev, pi_now;
  for (std::size_t i = 0; i < num_pi; ++i) pi_prev.push_back(aig.add_input());
  for (std::size_t i = 0; i < num_pi; ++i) pi_now.push_back(aig.add_input());
  const Machine machine = build_machine(aig, netlist, pi_prev, pi_now);

  Rng rng(seed);
  const Stimulus stim = random_stimulus(num_pi, cycles, rng);
  const OutputStream reference = simulate_outputs(netlist, stim);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(cycles));

  std::vector<std::uint8_t> state = reset_state(netlist, machine);
  std::vector<std::uint64_t> inputs(aig.num_inputs(), 0);
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> prev(num_pi, 0);  // PIs are 0 until first drive
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < num_pi; ++i) {
      inputs[aig.input_index(lit_node(pi_prev[i]))] = prev[i] ? ~0ull : 0;
      inputs[aig.input_index(lit_node(pi_now[i]))] = stim[c][i] ? ~0ull : 0;
    }
    for (std::size_t s = 0; s < machine.state_in.size(); ++s) {
      inputs[aig.input_index(lit_node(machine.state_in[s]))] =
          state[s] ? ~0ull : 0;
    }
    aig.simulate(inputs, words);
    for (std::size_t j = 0; j < machine.po.size(); ++j) {
      ASSERT_EQ(Aig::word_of(words, machine.po[j]) & 1,
                static_cast<std::uint64_t>(reference[c][j]))
          << netlist.name() << " cycle " << c << " output " << j;
    }
    for (std::size_t s = 0; s < machine.state_in.size(); ++s) {
      state[s] =
          static_cast<std::uint8_t>(Aig::word_of(words, machine.next_state[s]) & 1);
    }
    for (std::size_t i = 0; i < num_pi; ++i) prev[i] = stim[c][i];
  }
}

TEST(Machine, TracksSimulatorAcrossStyles) {
  const circuits::Benchmark bm = circuits::make_benchmark("s1196");
  Netlist ff = bm.netlist;
  infer_clock_gating(ff);
  expect_machine_matches_simulator(bm.netlist, 30, 7);
  expect_machine_matches_simulator(ff, 30, 7);
  expect_machine_matches_simulator(to_master_slave(ff), 30, 7);
  ThreePhaseResult p3 = to_three_phase(ff);
  expect_machine_matches_simulator(p3.netlist, 30, 7);
  gate_p2_latches(p3.netlist);
  apply_m2(p3.netlist);
  expect_machine_matches_simulator(p3.netlist, 30, 7);
  expect_machine_matches_simulator(to_pulsed_latch(ff).netlist, 30, 7);
  expect_machine_matches_simulator(to_two_phase(ff).netlist, 30, 7);
  expect_machine_matches_simulator(to_det_ff(ff).netlist, 30, 7);
}

TEST(Machine, StateCoversRegistersAndIcgs) {
  // DES3's enable-gated key banks are what clock-gating inference turns
  // into latch-based ICGs (the ISCAS circuits carry no enables).
  const circuits::Benchmark bm = circuits::make_benchmark("DES3");
  Netlist nl = bm.netlist;
  infer_clock_gating(nl);  // introduces stateful ICGs
  Aig aig;
  const std::size_t num_pi = nl.data_inputs().size();
  std::vector<Lit> pi_prev, pi_now;
  for (std::size_t i = 0; i < num_pi; ++i) pi_prev.push_back(aig.add_input());
  for (std::size_t i = 0; i < num_pi; ++i) pi_now.push_back(aig.add_input());
  const Machine m = build_machine(aig, nl, pi_prev, pi_now);
  EXPECT_EQ(m.regs.size(), nl.registers().size());
  EXPECT_GT(m.icgs.size(), 0u);
  EXPECT_EQ(m.state_in.size(), m.regs.size() + m.icgs.size());
  EXPECT_EQ(m.next_state.size(), m.state_in.size());
  EXPECT_EQ(m.po.size(), nl.outputs().size());
  EXPECT_EQ(reset_state(nl, m).size(), m.state_in.size());
}

}  // namespace
}  // namespace tp::equiv
