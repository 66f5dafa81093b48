// Recursive min-cut placement.
//
// Stands in for the commercial place step of the paper's flow: it assigns
// every live cell a position in a square die sized by total area over a
// target utilization, by recursively bipartitioning the netlist (FM below a
// size threshold, connectivity-ordered splitting above it) and halving the
// region along its longer side. The result feeds the wireload model (net
// capacitance from half-perimeter wirelength) and clock-tree synthesis.
//
// Cost: every region is split in time linear in its own cells' pins (plus
// a sort of them for FM regions) — its hyperedges are the nets on those
// pins, and its only scratch is sized to the region — so a placement costs
// O(pins * depth) overall. FM regions see each pass at O(pins) plus bucket
// bitset reads (src/place/fm.hpp).
//
// Determinism contract: a region's FM hyperedges are its nets in ascending
// net id, each listing its region cells in ascending region index, and FM
// breaks gain ties by lowest index (fm.hpp). Together with path-derived
// seeds this fixes the placement bit for bit, independent of how the
// hyperedges are gathered.
#pragma once

#include <cstddef>
#include <vector>

#include "src/library/cell_library.hpp"
#include "src/netlist/netlist.hpp"

namespace tp {

struct PlaceOptions {
  double utilization = 0.7;
  /// Partitions at or below this size are refined with FM; larger ones are
  /// split by connectivity order (keeps the placer near-linear).
  int fm_threshold = 1500;
  int leaf_size = 8;
  std::uint64_t seed = 1;
  /// Placement always runs on the calling thread. This member holds no
  /// pool: its type admits only nullptr, and it exists so callers that
  /// clear it (`options.executor = nullptr`) still compile.
  std::nullptr_t executor = nullptr;
};

struct Placement {
  /// Position per cell id (dead cells keep {0, 0}); microns.
  std::vector<std::pair<double, double>> pos;
  double width_um = 0;
  double height_um = 0;

  /// Half-perimeter wirelength of one net (um); 0 for degenerate nets.
  [[nodiscard]] double net_hpwl_um(const Netlist& netlist, NetId net) const;

  /// Total HPWL over live nets (um).
  [[nodiscard]] double total_hpwl_um(const Netlist& netlist) const;

  /// Net capacitance under the placement-based wireload model: pin caps
  /// plus wire cap per HPWL micron.
  [[nodiscard]] double net_cap_ff(const Netlist& netlist,
                                  const CellLibrary& library,
                                  NetId net) const;
};

Placement place(const Netlist& netlist, const CellLibrary& library,
                const PlaceOptions& options = {});

}  // namespace tp
