// Phase assignment: the output of the paper's core optimization (Sec. IV-A).
//
// Every original flip-flop u receives two binary attributes:
//   K(u): 1 -> the latch at u's position is clocked by p1,
//         0 -> it is clocked by p3;
//   G(u): 1 -> u is in the back-to-back group (a p2 latch is inserted at the
//         latch's output), 0 -> u becomes a single p1 latch.
// Data primary inputs act as p1 sources (K = 1 by definition); G(pi) = 1
// means a p2 latch is inserted at the primary input's output.
//
// Legality (mirrors the ILP constraints):
//   - K(u) = 0 implies G(u) = 1              (p3 latches are back-to-back)
//   - K(u) = K(v) = 1, v in FO(u) implies G(u) = 1   (no consecutive
//     transparent p1 latches; this also covers self-loops)
//   - K(v) = 1 for v in FO(pi) implies G(pi) = 1     (interface rule)
#pragma once

#include <cstdint>
#include <vector>

#include "src/netlist/traverse.hpp"

namespace tp {

struct PhaseAssignment {
  std::vector<std::uint8_t> k;     // per RegisterGraph node
  std::vector<std::uint8_t> g;     // per RegisterGraph node
  std::vector<std::uint8_t> pi_g;  // per data PI
  /// True when the solver proved this assignment minimal.
  bool optimal = false;

  /// Number of inserted p2 latches = sum(g) + sum(pi_g), the ILP objective.
  [[nodiscard]] int num_inserted() const;

  /// Total latches in the converted design: one per original FF position
  /// plus the inserted p2 latches.
  [[nodiscard]] int total_latches(const RegisterGraph& graph) const;

  /// Latch phase for the register at node u (kP1 or kP3).
  [[nodiscard]] Phase position_phase(int u) const {
    return k[u] ? Phase::kP1 : Phase::kP3;
  }
};

/// Throws tp::Error when `assignment` violates any legality rule above.
void validate_assignment(const RegisterGraph& graph,
                         const PhaseAssignment& assignment);

/// Canonicalizes G from K (the cheapest G consistent with K) and returns the
/// objective. Used by the specialized solver and by tests.
PhaseAssignment assignment_from_k(const RegisterGraph& graph,
                                  std::vector<std::uint8_t> k);

enum class AssignMethod {
  kSpecialized,  // reduction to maximum independent set + dedicated search
  kGreedy,       // the heuristic baseline (ablation)
};

struct AssignOptions {
  AssignMethod method = AssignMethod::kSpecialized;
};

/// Solves the phase-assignment problem for a register graph.
PhaseAssignment assign_phases(const RegisterGraph& graph,
                              const AssignOptions& options = {});

// Method-specific entry points (assign_phases dispatches to these).
PhaseAssignment assign_phases_specialized(const RegisterGraph& graph);
PhaseAssignment assign_phases_greedy(const RegisterGraph& graph);

}  // namespace tp
