#include "src/transform/ddcg.hpp"

#include <algorithm>

#include "src/util/strcat.hpp"

namespace tp {
namespace {

/// Balanced OR-tree over `signals` (kOr2/kOr3).
NetId or_tree(Netlist& netlist, std::vector<NetId> signals,
              const std::string& name) {
  require(!signals.empty(), "or_tree: no inputs");
  int stage = 0;
  while (signals.size() > 1) {
    std::vector<NetId> next;
    std::size_t i = 0;
    while (i < signals.size()) {
      const std::size_t left = signals.size() - i;
      if (left == 1) {
        next.push_back(signals[i]);
        i += 1;
      } else if (left == 3 || left % 3 == 0) {
        next.push_back(netlist.cell(netlist.add_gate(
                                        CellKind::kOr3,
                                        cat(name, "_or", stage, "_", i),
                                        {signals[i], signals[i + 1],
                                         signals[i + 2]}))
                           .out);
        i += 3;
      } else {
        next.push_back(netlist.cell(netlist.add_gate(
                                        CellKind::kOr2,
                                        cat(name, "_or", stage, "_", i),
                                        {signals[i], signals[i + 1]}))
                           .out);
        i += 2;
      }
    }
    signals = std::move(next);
    ++stage;
  }
  return signals.front();
}

}  // namespace

DdcgResult apply_ddcg(Netlist& netlist, const ActivityStats& activity,
                      const DdcgOptions& options) {
  DdcgResult result;
  const ClockSpec& clocks = netlist.clocks();
  const NetId p1_root = clocks.root(Phase::kP1);
  const NetId p2_root = clocks.root(Phase::kP2);

  struct Candidate {
    CellId latch;
    double rate;
  };
  std::vector<Candidate> candidates;
  for (const CellId id : netlist.registers()) {
    const Cell& latch = netlist.cell(id);
    if (latch.phase != Phase::kP2 || latch.ins[1] != p2_root) continue;
    const double rate = activity.toggle_rate(latch.ins[0]);
    if (rate < options.toggle_threshold) candidates.push_back({id, rate});
  }
  // Group latches with similar (low, correlated) toggle rates.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.rate != b.rate ? a.rate < b.rate
                                      : a.latch < b.latch;
            });

  for (std::size_t start = 0; start < candidates.size();
       start += static_cast<std::size_t>(options.max_fanout)) {
    const std::size_t end =
        std::min(candidates.size(),
                 start + static_cast<std::size_t>(options.max_fanout));
    const std::string group_name = cat("ddcg", result.groups);
    std::vector<NetId> diffs;
    for (std::size_t i = start; i < end; ++i) {
      const Cell& latch = netlist.cell(candidates[i].latch);
      const CellId x =
          netlist.add_gate(CellKind::kXor2,
                           cat(group_name, "_x", i - start),
                           {latch.ins[0], latch.out});
      diffs.push_back(netlist.cell(x).out);
      ++result.xor_cells;
    }
    const NetId enable = or_tree(netlist, std::move(diffs), group_name);
    const NetId gclk = netlist.add_net(group_name + "_gclk");
    // Unlike the common-enable CG (which samples on p3), the data-driven
    // enable XORs p1-latch outputs that settle during [0, T/3); the M1 cell
    // therefore borrows p1, freezing the decision exactly when p2 opens.
    netlist.add_cell(CellKind::kIcgM1, group_name + "_cg",
                     {enable, p2_root, p1_root}, gclk, Phase::kP2);
    for (std::size_t i = start; i < end; ++i) {
      netlist.replace_input(candidates[i].latch, 1, gclk);
      ++result.latches_gated;
    }
    ++result.groups;
  }
  return result;
}

}  // namespace tp
