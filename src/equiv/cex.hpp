// Counterexample handling for the sequential equivalence checker.
//
// A falsification found on the AIG model is only trusted after it has been
// replayed through the event-driven simulator (tp::WideSimulator, one lane)
// on both netlists — the replay guards against any divergence between the
// symbolic one-cycle model and the simulator's event semantics. Confirmed
// counterexamples are then shrunk with a ddmin pass: the stimulus is
// truncated to the first mismatching cycle and input bits are cleared in
// progressively finer chunks while the mismatch persists, which typically
// reduces a random SAT witness to a handful of set bits that point straight
// at the faulty logic.
#pragma once

#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/stimulus.hpp"

namespace tp::equiv {

struct Counterexample {
  /// Stimulus in the *golden* netlist's data_inputs() order, starting at the
  /// cycle right after reset (no warmup).
  Stimulus inputs;
  /// First cycle at which the designs disagree (index into `inputs`).
  std::ptrdiff_t cycle = -1;
  /// Index and name (from the golden netlist) of the first differing output.
  std::size_t output = 0;
  std::string output_name;
  bool expected = false;  // golden value at (cycle, output)
  bool got = false;       // revised value
  /// True once the mismatch has been reproduced by the simulator.
  bool confirmed = false;

  /// Number of 1-bits in the stimulus (the quantity ddmin minimizes).
  [[nodiscard]] std::size_t ones() const;
  [[nodiscard]] std::string to_string() const;
};

/// Pin permutation from `from.data_inputs()` order into `to.data_inputs()`
/// order, matched by input name; position-matched when the name sets differ.
/// Throws tp::Error when the input counts differ.
std::vector<std::size_t> map_data_inputs(const Netlist& from,
                                         const Netlist& to);

/// Simulates `netlist` from reset under `stimulus` (given in the netlist's
/// own data_inputs() order, no warmup discarded) with the style-appropriate
/// snapshot event, returning one output vector per cycle.
OutputStream simulate_outputs(const Netlist& netlist, const Stimulus& stimulus);

/// Replays cex.inputs through both netlists in simulation and fills the
/// mismatch fields (cycle, output, expected/got, confirmed). Returns true
/// when the simulators disagree on some cycle.
bool replay(const Netlist& golden, const Netlist& revised, Counterexample& cex);

/// Shrinks a confirmed counterexample: truncates to the first mismatching
/// cycle, ddmin-clears stimulus bits, then refreshes the mismatch fields via
/// a final replay. No-op for unconfirmed counterexamples.
void minimize(const Netlist& golden, const Netlist& revised,
              Counterexample& cex);

}  // namespace tp::equiv
