// Clock-tree synthesis model.
//
// For every clock net (phase roots and gated-clock nets) a buffered tree is
// synthesized over its sink pins: sinks are clustered geometrically (Morton
// order over the placement) into groups of at most `max_fanout`, each group
// receives a buffer at its centroid with wire length equal to the cluster's
// half-perimeter, and the buffers are clustered recursively up to the root.
//
// The report feeds the power model: a 3-phase design routes three root
// trees, which is exactly why the paper observes roughly 3x clock-tree
// synthesis run time and why the per-tree sink capacitance (latch clock
// pins are smaller than FF clock pins) drives the clock-power savings.
// Gated subtrees (ICG outputs) toggle at their own measured rate, so
// clock-gating savings appear naturally.
#pragma once

#include <cstddef>
#include <vector>

#include "src/place/placer.hpp"

namespace tp {

struct CtsOptions {
  int max_fanout = 20;
  /// Clock-tree synthesis always runs on the calling thread. This member
  /// holds no pool: its type admits only nullptr, and it exists so callers
  /// that clear it (`options.executor = nullptr`) still compile.
  std::nullptr_t executor = nullptr;
};

struct ClockNetTree {
  NetId net;
  int sinks = 0;
  int buffers = 0;
  int levels = 0;
  double wire_um = 0;
};

struct ClockTreeReport {
  std::vector<ClockNetTree> nets;
  int total_buffers = 0;
  double total_wire_um = 0;

  /// Per-net lookups (indexed by net id; zero for non-clock nets).
  std::vector<int> buffers_of_net;
  std::vector<double> wire_of_net;

  [[nodiscard]] double buffer_area_um2(const CellLibrary& library) const {
    return total_buffers * library.params(CellKind::kClkBuf).area_um2;
  }
};

ClockTreeReport synthesize_clock_trees(const Netlist& netlist,
                                       const Placement& placement,
                                       const CtsOptions& options = {});

}  // namespace tp
