#include "src/cts/cts.hpp"

#include <algorithm>
#include <cmath>

namespace tp {
namespace {

struct Point {
  double x, y;
};

std::uint64_t morton(double x, double y, double die) {
  const auto qx = static_cast<std::uint32_t>(
      std::clamp(x / std::max(die, 1e-9), 0.0, 1.0) * 0xFFFF);
  const auto qy = static_cast<std::uint32_t>(
      std::clamp(y / std::max(die, 1e-9), 0.0, 1.0) * 0xFFFF);
  std::uint64_t key = 0;
  for (int b = 0; b < 16; ++b) {
    key |= (static_cast<std::uint64_t>((qx >> b) & 1) << (2 * b)) |
           (static_cast<std::uint64_t>((qy >> b) & 1) << (2 * b + 1));
  }
  return key;
}

double cluster_hpwl(const std::vector<Point>& points, std::size_t begin,
                    std::size_t end) {
  double x0 = 1e30, y0 = 1e30, x1 = -1e30, y1 = -1e30;
  for (std::size_t i = begin; i < end; ++i) {
    x0 = std::min(x0, points[i].x);
    y0 = std::min(y0, points[i].y);
    x1 = std::max(x1, points[i].x);
    y1 = std::max(y1, points[i].y);
  }
  return (x1 - x0) + (y1 - y0);
}

/// Builds the buffered tree of one clock net: a pure function of the net's
/// sink positions, so the per-net builds can run as parallel tasks.
ClockNetTree build_tree(const Netlist& netlist, const Placement& placement,
                        NetId net_id, double die, int max_fanout) {
  const Net& net = netlist.net(net_id);
  // Sinks: every fanout pin (register clock pins, downstream ICG/buffer
  // clock pins).
  std::vector<Point> sinks;
  for (const PinRef& ref : net.fanouts) {
    const auto& [x, y] = placement.pos[ref.cell.value()];
    sinks.push_back({x, y});
  }
  ClockNetTree tree;
  tree.net = net_id;
  tree.sinks = static_cast<int>(sinks.size());
  // Recursive bottom-up clustering in Morton order.
  std::vector<Point> level = std::move(sinks);
  while (static_cast<int>(level.size()) > max_fanout) {
    std::sort(level.begin(), level.end(), [&](const Point& a,
                                              const Point& b) {
      return morton(a.x, a.y, die) < morton(b.x, b.y, die);
    });
    std::vector<Point> next;
    for (std::size_t i = 0; i < level.size();
         i += static_cast<std::size_t>(max_fanout)) {
      const std::size_t end = std::min(
          level.size(), i + static_cast<std::size_t>(max_fanout));
      tree.wire_um += cluster_hpwl(level, i, end);
      double cx = 0, cy = 0;
      for (std::size_t j = i; j < end; ++j) {
        cx += level[j].x;
        cy += level[j].y;
      }
      const auto count = static_cast<double>(end - i);
      next.push_back({cx / count, cy / count});
      ++tree.buffers;
    }
    level = std::move(next);
    ++tree.levels;
  }
  // Root segment: remaining nodes wired to the net driver (or die center
  // for root phase nets driven by input pads).
  tree.wire_um += cluster_hpwl(level, 0, level.size()) +
                  die / 4.0;  // trunk from the clock entry point
  return tree;
}

}  // namespace

ClockTreeReport synthesize_clock_trees(const Netlist& netlist,
                                       const Placement& placement,
                                       const CtsOptions& options) {
  ClockTreeReport report;
  report.buffers_of_net.assign(netlist.num_nets(), 0);
  report.wire_of_net.assign(netlist.num_nets(), 0);
  const double die = std::max(placement.width_um, 1.0);

  // One tree per clock net with sinks, in net-id order.
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(NetId{n});
    if (!net.alive || !net.is_clock || net.fanouts.empty()) continue;
    const ClockNetTree tree =
        build_tree(netlist, placement, NetId{n}, die, options.max_fanout);
    report.total_buffers += tree.buffers;
    report.total_wire_um += tree.wire_um;
    report.buffers_of_net[tree.net.value()] = tree.buffers;
    report.wire_of_net[tree.net.value()] = tree.wire_um;
    report.nets.push_back(tree);
  }
  return report;
}

}  // namespace tp
