#include "src/place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/place/fm.hpp"

namespace tp {
namespace {

struct Region {
  double x0, y0, x1, y1;
  std::vector<CellId> cells;
};

/// splitmix64 finalizer: the FM seed of a region is a pure function of the
/// placer seed and the region's root-to-here path (root 1, children 2p and
/// 2p+1), not of visit order.
std::uint64_t region_seed(std::uint64_t seed, std::uint64_t path) {
  std::uint64_t z = seed + path * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A placement's scratch, allocated once and reused by every region: the
/// netlist's pins as two CSRs, an unvisited mark per cell and the BFS
/// order for connectivity splits, a net -> edge-slot map (-1 outside the
/// region being split, reset after it, so a region costs O(its pins), not
/// O(netlist)), per-slot state, and FM's hypergraph and workspace.
struct PlaceScratch {
  explicit PlaceScratch(const Netlist& netlist)
      : cell_net_begin(netlist.num_cells() + 1, 0),
        net_cell_begin(netlist.num_nets() + 1, 0),
        unvisited(netlist.num_cells(), 0),
        net_slot(netlist.num_nets(), -1) {
    for (std::uint32_t c = 0; c < netlist.num_cells(); ++c) {
      const Cell& cell = netlist.cell(CellId{c});
      const auto add = [&](NetId net) {
        if (net.valid() && netlist.net(net).alive) {
          cell_nets.push_back(static_cast<int>(net.value()));
        }
      };
      for (const NetId in : cell.ins) add(in);
      add(cell.out);
      cell_net_begin[c + 1] = static_cast<int>(cell_nets.size());
    }
    for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
      const Net& net = netlist.net(NetId{n});
      if (net.fanouts.size() <= kMaxBfsFanout) {
        if (net.driver.valid()) {
          net_cells.push_back(static_cast<int>(net.driver.value()));
        }
        for (const PinRef& ref : net.fanouts) {
          net_cells.push_back(static_cast<int>(ref.cell.value()));
        }
      }
      net_cell_begin[n + 1] = static_cast<int>(net_cells.size());
    }
  }

  /// Nets with more fanout pins carry no BFS locality and list no cells.
  static constexpr std::size_t kMaxBfsFanout = 16;

  /// CSR: the live nets on cell c's pins (inputs, then output) are
  /// cell_nets[cell_net_begin[c] ..].
  std::vector<int> cell_net_begin;
  std::vector<int> cell_nets;
  /// CSR: net n's driver, then its fanout cells in fanout order, are
  /// net_cells[net_cell_begin[n] ..] (empty above kMaxBfsFanout).
  std::vector<int> net_cell_begin;
  std::vector<int> net_cells;
  /// 1 for the cells of the region being split that the BFS has not
  /// reached; the BFS reaches them all, so it is all 0 between regions.
  std::vector<std::uint8_t> unvisited;
  std::vector<CellId> bfs_order;
  std::vector<int> net_slot;
  std::vector<int> slot_net;
  std::vector<int> slot_last;  // last region cell seen on the net
  /// Distinct region cells on the net, then the edge's fill cursor into
  /// graph.pins (-1 when the net is no edge).
  std::vector<int> slot_fill;
  /// (slot, region index) per distinct pin, in region order.
  std::vector<std::pair<int, int>> slot_pins;
  Hypergraph graph;
  FmWorkspace fm;
  FmStats stats;
};

/// Splits `cells` into two area-balanced halves ordered by a BFS over the
/// connectivity (cheap locality above the FM threshold). The BFS order is
/// its own queue: each component is appended as it is discovered.
std::pair<std::vector<CellId>, std::vector<CellId>> connectivity_split(
    const std::vector<std::int64_t>& weights, const std::vector<CellId>& cells,
    PlaceScratch& scratch) {
  for (const CellId c : cells) scratch.unvisited[c.value()] = 1;
  std::vector<CellId>& order = scratch.bfs_order;
  order.clear();
  std::size_t head = 0;
  for (const CellId start : cells) {
    if (!scratch.unvisited[start.value()]) continue;
    scratch.unvisited[start.value()] = 0;
    order.push_back(start);
    for (; head < order.size(); ++head) {
      const std::uint32_t u = order[head].value();
      for (int p = scratch.cell_net_begin[u]; p < scratch.cell_net_begin[u + 1];
           ++p) {
        const auto net = static_cast<std::size_t>(
            scratch.cell_nets[static_cast<std::size_t>(p)]);
        for (int q = scratch.net_cell_begin[net];
             q < scratch.net_cell_begin[net + 1]; ++q) {
          const auto c = static_cast<std::uint32_t>(
              scratch.net_cells[static_cast<std::size_t>(q)]);
          if (scratch.unvisited[c]) {
            scratch.unvisited[c] = 0;
            order.push_back(CellId{c});
          }
        }
      }
    }
  }
  const std::int64_t total = std::accumulate(
      cells.begin(), cells.end(), std::int64_t{0},
      [&](std::int64_t acc, CellId c) { return acc + weights[c.value()]; });
  std::pair<std::vector<CellId>, std::vector<CellId>> halves;
  std::int64_t w0 = 0;
  for (const CellId c : order) {
    if (w0 < total / 2) {
      halves.first.push_back(c);
      w0 += weights[c.value()];
    } else {
      halves.second.push_back(c);
    }
  }
  return halves;
}

/// FM bipartition of a region. Its hyperedges are the live nets on its own
/// cells' pins with >= 2 distinct region cells, in first-seen order, each
/// listing its cells by ascending region index (FM's result depends on
/// neither order, fm.hpp). One pass over the pins gives each net a slot
/// and records its distinct pins; a counting pass lays them out flat.
std::pair<std::vector<CellId>, std::vector<CellId>> fm_split(
    const std::vector<std::int64_t>& weights, const std::vector<CellId>& cells,
    std::uint64_t seed, PlaceScratch& scratch) {
  Hypergraph& graph = scratch.graph;
  graph.clear();
  scratch.slot_net.clear();
  scratch.slot_last.clear();
  scratch.slot_fill.clear();
  scratch.slot_pins.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    graph.weights.push_back(weights[cells[i].value()]);
    const int index = static_cast<int>(i);
    const std::uint32_t c = cells[i].value();
    for (int p = scratch.cell_net_begin[c]; p < scratch.cell_net_begin[c + 1];
         ++p) {
      const int net = scratch.cell_nets[static_cast<std::size_t>(p)];
      int& slot = scratch.net_slot[static_cast<std::size_t>(net)];
      if (slot < 0) {
        slot = static_cast<int>(scratch.slot_net.size());
        scratch.slot_net.push_back(net);
        scratch.slot_last.push_back(-1);
        scratch.slot_fill.push_back(0);
      }
      // Cells come in index order, so a repeated pin repeats the last one.
      const auto s = static_cast<std::size_t>(slot);
      if (scratch.slot_last[s] == index) continue;
      scratch.slot_last[s] = index;
      ++scratch.slot_fill[s];
      scratch.slot_pins.emplace_back(slot, index);
    }
  }
  for (const int net : scratch.slot_net) {
    scratch.net_slot[static_cast<std::size_t>(net)] = -1;
  }
  // Nets with >= 2 region cells become edges, in slot order.
  for (int& fill : scratch.slot_fill) {
    const int size = fill;
    fill = size < 2 ? -1 : graph.edge_begin.back();
    if (size >= 2) graph.edge_begin.push_back(graph.edge_begin.back() + size);
  }
  graph.pins.resize(static_cast<std::size_t>(graph.edge_begin.back()));
  for (const auto& [slot, index] : scratch.slot_pins) {
    int& fill = scratch.slot_fill[static_cast<std::size_t>(slot)];
    if (fill >= 0) graph.pins[static_cast<std::size_t>(fill++)] = index;
  }

  FmOptions options;
  options.seed = seed;
  const FmResult result = fm_bipartition(graph, options, scratch.fm);
  scratch.stats += result.stats;
  std::pair<std::vector<CellId>, std::vector<CellId>> halves;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    (result.side[i] ? halves.second : halves.first).push_back(cells[i]);
  }
  // Degenerate FM outcome: fall back to an arbitrary balanced split.
  if (halves.first.empty() || halves.second.empty()) {
    halves.first.clear();
    halves.second.clear();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      (i % 2 ? halves.second : halves.first).push_back(cells[i]);
    }
  }
  return halves;
}

/// What the recursive bisection shares across regions.
struct Bisection {
  const std::vector<std::int64_t>& weights;
  const PlaceOptions& options;
  Placement& placement;
  PlaceScratch scratch;
};

/// Places `region`'s cells: grids a leaf, else splits it (FM seeded by the
/// region's path, see region_seed) and recurses into both halves.
void bisect(Bisection& ctx, Region region, std::uint64_t path) {
  if (static_cast<int>(region.cells.size()) <= ctx.options.leaf_size) {
    // Grid the leaf cells inside the region.
    const int cols = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(region.cells.size()))));
    for (std::size_t i = 0; i < region.cells.size(); ++i) {
      const int r = static_cast<int>(i) / cols;
      const int c = static_cast<int>(i) % cols;
      ctx.placement.pos[region.cells[i].value()] = {
          region.x0 + (region.x1 - region.x0) * (c + 0.5) / cols,
          region.y0 + (region.y1 - region.y0) * (r + 0.5) / cols};
    }
    return;
  }
  auto halves =
      static_cast<int>(region.cells.size()) <= ctx.options.fm_threshold
          ? fm_split(ctx.weights, region.cells,
                     region_seed(ctx.options.seed, path), ctx.scratch)
          : connectivity_split(ctx.weights, region.cells, ctx.scratch);
  region.cells = {};  // the halves hold them now
  Region a{region.x0, region.y0, region.x1, region.y1,
           std::move(halves.first)};
  Region b{region.x0, region.y0, region.x1, region.y1,
           std::move(halves.second)};
  if ((region.x1 - region.x0) >= (region.y1 - region.y0)) {
    const double mid = (region.x0 + region.x1) / 2;
    a.x1 = mid;
    b.x0 = mid;
  } else {
    const double mid = (region.y0 + region.y1) / 2;
    a.y1 = mid;
    b.y0 = mid;
  }
  bisect(ctx, std::move(a), 2 * path);
  bisect(ctx, std::move(b), 2 * path + 1);
}

}  // namespace

double Placement::net_hpwl_um(const Netlist& netlist, NetId net_id) const {
  const Net& net = netlist.net(net_id);
  double x0 = 1e30, y0 = 1e30, x1 = -1e30, y1 = -1e30;
  int pins = 0;
  auto add = [&](CellId c) {
    if (!c.valid()) return;
    const auto& [x, y] = pos[c.value()];
    x0 = std::min(x0, x);
    y0 = std::min(y0, y);
    x1 = std::max(x1, x);
    y1 = std::max(y1, y);
    ++pins;
  };
  add(net.driver);
  for (const PinRef& ref : net.fanouts) add(ref.cell);
  if (pins < 2) return 0;
  return (x1 - x0) + (y1 - y0);
}

double Placement::total_hpwl_um(const Netlist& netlist) const {
  double total = 0;
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    if (netlist.net(NetId{n}).alive) {
      total += net_hpwl_um(netlist, NetId{n});
    }
  }
  return total;
}

double Placement::net_cap_ff(const Netlist& netlist,
                             const CellLibrary& library, NetId net) const {
  double cap = net_hpwl_um(netlist, net) * library.wire_cap_per_um_ff();
  for (const PinRef& ref : netlist.net(net).fanouts) {
    cap += library.pin_cap_ff(netlist.cell(ref.cell).kind,
                              static_cast<int>(ref.pin));
  }
  return cap;
}

Placement place(const Netlist& netlist, const CellLibrary& library,
                const PlaceOptions& options) {
  Placement placement;
  placement.pos.assign(netlist.num_cells(), {0.0, 0.0});

  std::vector<CellId> cells;
  std::vector<std::int64_t> weights(netlist.num_cells(), 0);
  double total_area = 0;
  for (const CellId id : netlist.live_cells()) {
    const CellKind kind = netlist.cell(id).kind;
    if (kind == CellKind::kInput || kind == CellKind::kOutput ||
        kind == CellKind::kConst0 || kind == CellKind::kConst1) {
      continue;
    }
    const double area = library.params(kind).area_um2;
    weights[id.value()] =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(area * 100));
    total_area += area;
    cells.push_back(id);
  }
  const double die =
      std::sqrt(std::max(total_area, 1.0) / options.utilization);
  placement.width_um = die;
  placement.height_um = die;
  if (cells.empty()) return placement;

  Bisection ctx{weights, options, placement, PlaceScratch(netlist)};
  bisect(ctx, Region{0, 0, die, die, std::move(cells)}, 1);
  placement.fm = ctx.scratch.stats;
  return placement;
}

}  // namespace tp
