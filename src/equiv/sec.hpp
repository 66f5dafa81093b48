// Phase-aware sequential equivalence checking (SEC).
//
// check_sequential_equivalence() proves that a converted netlist (3-phase,
// master-slave, or pulsed-latch) produces the same primary-output stream as
// the FF golden model for *every* stimulus — replacing the paper's sampled
// stream comparison with a proof. The pipeline:
//
//  1. Phase-aware register mapping. Each netlist is compiled into a one-cycle
//     transition system over an And-Inverter Graph by symbolically executing
//     the simulator's event schedule (one event per distinct phase-edge time,
//     parked at t = Tc-1 between cycles — see src/sim/simulator.hpp). Latch
//     pairs need no special casing: a p1/p3 latch and its inserted p2 partner
//     (or a master-slave pair) collapse into one abstract state function
//     because the intermediate latch's settle value is a combinational
//     function of the cycle's register state. Primary outputs are captured at
//     the style's snapshot event, which is exactly the alignment that makes
//     all four DesignStyles comparable against the FF model.
//  2. Both transition systems share one structurally hashed AIG, so identical
//     cones across the two designs collapse into the same nodes up front.
//  3. Candidate-equivalent node pairs are grouped by 64-bit parallel random
//     simulation from the reset state, filtered against the reset frame, and
//     then proven by 1-step induction with speculative reduction (van
//     Eijk-style signal correspondence): candidate members are substituted by
//     their class representative while unrolling the second time frame, and
//     each substitution leaves a proof obligation that is discharged
//     structurally or by the built-in CDCL solver (sat.hpp). Refuted
//     candidates are split by re-simulating the SAT witness and the round
//     repeats to a fixpoint.
//  4. Output equality is checked under the proven invariants; if that is
//     inconclusive, bounded model checking from reset searches for a real
//     divergence. Any falsification is replayed in simulation and
//     ddmin-minimized (cex.hpp) before being reported.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/equiv/aig.hpp"
#include "src/equiv/cex.hpp"
#include "src/netlist/netlist.hpp"

namespace tp::equiv {

struct SecOptions {
  /// Random-simulation frames used to group equivalence candidates (each
  /// frame carries 64 independent traces).
  int sim_frames = 48;
  /// Maximum speculative-reduction refinement rounds before giving up.
  int max_rounds = 16;
  /// Bounded-model-checking depth used for falsification when induction
  /// leaves the output check inconclusive.
  int bmc_frames = 24;
  /// Per-query conflict budget of the SAT solver (0 = unlimited).
  std::int64_t sat_conflict_limit = 200'000;
  /// ddmin-shrink counterexamples before reporting them.
  bool minimize_cex = true;
  /// Seed for the candidate-grouping simulation.
  std::uint64_t seed = 0xC0FFEE;
};

enum class SecStatus {
  kProven,     // output streams equal for every stimulus
  kFalsified,  // concrete, simulator-confirmed counterexample found
  kUnknown,    // proof inconclusive within the configured budgets
};

std::string_view status_name(SecStatus status);

struct SecStats {
  std::size_t aig_nodes = 0;        // final AIG size (both designs + frames)
  std::size_t golden_state_bits = 0;
  std::size_t revised_state_bits = 0;
  std::size_t candidate_pairs = 0;   // after base-case filtering
  std::size_t proven_structural = 0; // obligations discharged by hashing
  std::int64_t sat_calls = 0;
  std::int64_t sat_conflicts = 0;
  int rounds = 0;       // induction rounds to fixpoint
  int bmc_depth = 0;    // frames actually unrolled during falsification
};

struct SecResult {
  SecStatus status = SecStatus::kUnknown;
  /// Filled when status == kFalsified (simulator-confirmed and, unless
  /// disabled, minimized).
  Counterexample cex;
  SecStats stats;
  /// Human-readable summary; for kUnknown, the reason.
  std::string detail;

  explicit operator bool() const { return status == SecStatus::kProven; }
};

/// Proves or refutes output-stream equality of `revised` against `golden`.
/// Data inputs are matched by name (by position when names differ); outputs
/// are matched positionally and must agree in count. Never throws: structural
/// problems (e.g. a genuine combinational cycle) surface as kUnknown.
SecResult check_sequential_equivalence(const Netlist& golden,
                                       const Netlist& revised,
                                       const SecOptions& options = {});

// --- one-cycle symbolic model (exposed for tests and benches) --------------

/// A netlist's transition system for one full clock cycle, compiled into a
/// shared AIG. State is the register outputs plus the internal enable
/// latches of stateful clock gates, both in cell-id order.
struct Machine {
  std::vector<CellId> regs;
  std::vector<CellId> icgs;
  /// AIG input literal carrying each state bit at the cycle boundary
  /// (registers first, then ICGs; aligned with `next_state`).
  std::vector<Lit> state_in;
  /// Primary outputs at the style's snapshot event, in outputs() order.
  std::vector<Lit> po;
  /// State at the end of the cycle, aligned with `state_in`.
  std::vector<Lit> next_state;
};

/// Symbolically executes one clock cycle of `netlist` into `aig`. `pi_prev`
/// and `pi_now` are the data primary-input values of the previous and the
/// current cycle in data_inputs() order — the simulator changes PIs at t = 0
/// *after* registers sample, so the first event still sees last cycle's
/// values. Throws tp::Error on genuine combinational cycles.
Machine build_machine(Aig& aig, const Netlist& netlist,
                      std::span<const Lit> pi_prev,
                      std::span<const Lit> pi_now);

/// Concrete machine state right after WideSimulator::reset(), aligned with
/// Machine::state_in.
std::vector<std::uint8_t> reset_state(const Netlist& netlist,
                                      const Machine& machine);

}  // namespace tp::equiv
