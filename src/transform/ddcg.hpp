// Multi-bit data-driven clock gating for the remaining ungated p2 latches
// (Sec. IV-D, after [24]).
//
// For each candidate latch an XOR compares D and Q; the per-latch comparison
// signals of a group are OR-ed into one enable that drives a shared p2 CG
// cell, always M1 style: it borrows the p1 phase so that the decision
// freezes when p2 opens (FlowOptions::use_m1 governs only the p2
// common-enable gating). The clock only pulses when at least one latch in
// the group would change. Grouping follows the paper: candidates are latches
// whose data toggles in less than `toggle_threshold` of cycles; they are
// sorted by toggle rate (grouping correlated low-activity latches) and split
// into groups of at most `max_fanout` (32 in the paper).
#pragma once

#include "src/netlist/netlist.hpp"
#include "src/sim/simulator.hpp"

namespace tp {

struct DdcgOptions {
  double toggle_threshold = 0.01;  // toggles per cycle
  int max_fanout = 32;
};

struct DdcgResult {
  int groups = 0;
  int latches_gated = 0;
  int xor_cells = 0;
};

/// Applies multi-bit DDCG to the p2 latches of a converted 3-phase design
/// that are still clocked straight from the p2 root. `activity` must come
/// from a simulation of this same netlist.
DdcgResult apply_ddcg(Netlist& netlist, const ActivityStats& activity,
                      const DdcgOptions& options = {});

}  // namespace tp
