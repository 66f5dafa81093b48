// Modified retiming of the inserted latches (Sec. IV-C).
//
// The paper maps p1/p3 latches to FFs on clk, the inserted p2 latches to
// FFs on clkbar, and retimes only the clkbar FFs so that both halves of
// every split stage meet Tc/2. This module realizes the same objective
// directly on the latch netlist as a delay-legal minimum net cut:
//
//  1. Bypass every movable latch (p2 latches of a 3-phase design, or slave
//     latches of a master-slave design), remembering its gate net.
//  2. The retiming region is the combinational cone from the bypassed latch
//     inputs ("sources") to register data pins, primary outputs, and ICG
//     enable pins ("sinks"). A net is a legal latch position when
//       - its source-side arrival plus the latch setup fits in Tc/2, and
//       - the latch clk-to-q plus its sink-side tail fits in Tc/2, and
//       - no non-movable register feeds it (that path must stay latch-free),
//       - all movable sources feeding it share one gate net (only relevant
//         for gated slaves; p2 latches are gated after retiming).
//     Source nets are always legal, guaranteeing feasibility.
//  3. Minimum s-t cut over legal nets (node-split, infinite structural arcs
//     with infinite reverse arcs so the cut is predecessor-closed and every
//     source-to-sink path is cut exactly once). Reconvergent cones can merge
//     latches, so retiming can reduce the latch count.
//  4. Latches are re-inserted on the cut nets.
#pragma once

#include "src/library/cell_library.hpp"
#include "src/netlist/netlist.hpp"

namespace tp {

struct RetimeOptions {
  /// Which latches move: phase kP2 (3-phase designs) or the slave side of a
  /// master-slave design (phase kClk transparent-high latches).
  Phase movable_phase = Phase::kP2;
  /// Safety margin subtracted from each Tc/2 half-budget (ps); absorbs
  /// time borrowed by the launching latch, which the cut labels do not
  /// track.
  double margin_ps = 120.0;
  /// Seed launch arrivals at the launcher's closing edge instead of its
  /// opening edge — the worst case when upstream stages borrow heavily.
  /// More conservative cuts, used as a timing-closure fallback.
  bool assume_full_borrowing = false;
  bool enabled = true;
};

struct RetimeResult {
  int latches_before = 0;
  int latches_after = 0;
  int moved = 0;  // cut nets that are not original positions
};

/// Retimes the movable latches of `netlist` in place.
RetimeResult retime_inserted_latches(Netlist& netlist,
                                     const CellLibrary& library,
                                     const RetimeOptions& options = {});

}  // namespace tp
