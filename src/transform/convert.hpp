// FF-to-latch design conversions (Sec. IV-B).
//
// to_master_slave: the conventional baseline — every DFF becomes a
// transparent-low master plus a transparent-high slave on the same (possibly
// gated) clock net.
//
// to_three_phase: the paper's conversion — solve the phase-assignment
// problem, replace every DFF with a p1 or p3 transparent-high latch, insert
// a p2 latch at the output of every back-to-back group member and of every
// flagged primary input, and rebuild the clock network by tracing each
// gated clock back through its ICG chain, duplicating ICGs whose registers
// span two phases.
//
// Both conversions require clock-gating inference to have run first (no
// kDffEn cells remain; see clock_gating.hpp).
#pragma once

#include "src/netlist/netlist.hpp"
#include "src/phase/assignment.hpp"

namespace tp {

/// Converts a copy of `ff_netlist` to master-slave form.
Netlist to_master_slave(const Netlist& ff_netlist);

struct ThreePhaseOptions {
  /// When set, skip solving and use this assignment (indices must match the
  /// register graph of the input netlist). Lets callers time the ILP apart
  /// from the netlist rebuild.
  const PhaseAssignment* precomputed = nullptr;
};

struct ThreePhaseResult {
  Netlist netlist;
  PhaseAssignment assignment;
  /// p2 latches inserted (register outputs + primary inputs).
  int inserted_p2 = 0;
  /// Extra ICG copies created because a gating group spanned p1 and p3.
  int duplicated_icgs = 0;
};

ThreePhaseResult to_three_phase(const Netlist& ff_netlist,
                                const ThreePhaseOptions& options = {});

}  // namespace tp
