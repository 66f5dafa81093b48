#include "src/place/placer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
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

/// Region-sized map from cell id to the cell's index in its region
/// (open addressing, linear probing): the split helpers' only per-region
/// scratch, so a region costs O(its pins), not O(netlist).
class LocalIndex {
 public:
  explicit LocalIndex(const std::vector<CellId>& cells)
      : mask_(std::bit_ceil(2 * cells.size()) - 1),
        slots_(mask_ + 1, {kEmpty, 0}) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::size_t s = probe_start(cells[i].value());
      while (slots_[s].first != kEmpty) s = (s + 1) & mask_;
      slots_[s] = {cells[i].value(), static_cast<int>(i)};
    }
  }

  /// Index of `cell` in the region, or -1 when it lies outside.
  [[nodiscard]] int find(CellId cell) const {
    if (!cell.valid()) return -1;
    for (std::size_t s = probe_start(cell.value());; s = (s + 1) & mask_) {
      if (slots_[s].first == cell.value()) return slots_[s].second;
      if (slots_[s].first == kEmpty) return -1;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  [[nodiscard]] std::size_t probe_start(std::uint32_t id) const {
    return static_cast<std::size_t>(id * 0x9e3779b1U) & mask_;
  }

  std::size_t mask_;
  std::vector<std::pair<std::uint32_t, int>> slots_;
};

/// Splits `cells` into two area-balanced halves ordered by a BFS over the
/// connectivity (cheap locality above the FM threshold).
std::pair<std::vector<CellId>, std::vector<CellId>> connectivity_split(
    const Netlist& netlist, const std::vector<std::int64_t>& weights,
    const std::vector<CellId>& cells) {
  const LocalIndex index_of(cells);
  std::vector<std::uint8_t> visited(cells.size(), 0);
  std::vector<CellId> order;
  order.reserve(cells.size());
  std::vector<CellId> queue;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (visited[i]) continue;
    queue.assign(1, cells[i]);
    visited[i] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const CellId u = queue[head];
      order.push_back(u);
      auto visit_net = [&](NetId net) {
        const Net& n = netlist.net(net);
        if (n.fanouts.size() > 16) return;  // skip high-fanout nets
        auto visit_cell = [&](CellId c) {
          const int local = index_of.find(c);
          if (local < 0) return;
          auto& v = visited[static_cast<std::size_t>(local)];
          if (!v) {
            v = 1;
            queue.push_back(c);
          }
        };
        visit_cell(n.driver);
        for (const PinRef& ref : n.fanouts) visit_cell(ref.cell);
      };
      const Cell& cell = netlist.cell(u);
      for (const NetId in : cell.ins) visit_net(in);
      if (cell.out.valid()) visit_net(cell.out);
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
/// cells' pins with >= 2 distinct region cells, in ascending net id, each
/// listing its cells by ascending region index.
std::pair<std::vector<CellId>, std::vector<CellId>> fm_split(
    const Netlist& netlist, const std::vector<std::int64_t>& weights,
    const std::vector<CellId>& cells, std::uint64_t seed) {
  std::vector<std::int64_t> local_weights(cells.size());
  // (net id, region index) per pin. Sorted and deduplicated, each net's
  // region cells are contiguous and in ascending index.
  std::vector<std::uint64_t> pins;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    local_weights[i] = weights[cells[i].value()];
    const Cell& cell = netlist.cell(cells[i]);
    auto add = [&](NetId net) {
      if (net.valid() && netlist.net(net).alive) {
        pins.push_back(std::uint64_t{net.value()} << 32 | i);
      }
    };
    for (const NetId in : cell.ins) add(in);
    add(cell.out);
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  std::vector<std::vector<int>> hyperedges;
  for (std::size_t a = 0; a < pins.size();) {
    std::size_t b = a;
    while (b < pins.size() && pins[b] >> 32 == pins[a] >> 32) ++b;
    if (b - a >= 2) {
      std::vector<int>& members = hyperedges.emplace_back();
      for (std::size_t p = a; p < b; ++p) {
        members.push_back(static_cast<int>(pins[p] & 0xffffffffU));
      }
    }
    a = b;
  }
  FmOptions options;
  options.seed = seed;
  const FmResult result =
      fm_bipartition(local_weights, hyperedges, options);
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

  // Recursive bisection with path-derived FM seeds (see region_seed).
  const std::function<void(Region, std::uint64_t)> bisect =
      [&](Region region, std::uint64_t path) {
        if (static_cast<int>(region.cells.size()) <= options.leaf_size) {
          // Grid the leaf cells inside the region.
          const int cols = static_cast<int>(std::ceil(
              std::sqrt(static_cast<double>(region.cells.size()))));
          for (std::size_t i = 0; i < region.cells.size(); ++i) {
            const int r = static_cast<int>(i) / cols;
            const int c = static_cast<int>(i) % cols;
            placement.pos[region.cells[i].value()] = {
                region.x0 + (region.x1 - region.x0) * (c + 0.5) / cols,
                region.y0 + (region.y1 - region.y0) * (r + 0.5) / cols};
          }
          return;
        }
        const auto halves =
            static_cast<int>(region.cells.size()) <= options.fm_threshold
                ? fm_split(netlist, weights, region.cells,
                           region_seed(options.seed, path))
                : connectivity_split(netlist, weights, region.cells);
        const bool split_x =
            (region.x1 - region.x0) >= (region.y1 - region.y0);
        Region a = region, b = region;
        if (split_x) {
          const double mid = (region.x0 + region.x1) / 2;
          a.x1 = mid;
          b.x0 = mid;
        } else {
          const double mid = (region.y0 + region.y1) / 2;
          a.y1 = mid;
          b.y0 = mid;
        }
        a.cells = std::move(halves.first);
        b.cells = std::move(halves.second);
        bisect(std::move(a), 2 * path);
        bisect(std::move(b), 2 * path + 1);
      };
  bisect(Region{0, 0, die, die, std::move(cells)}, 1);
  return placement;
}

}  // namespace tp
