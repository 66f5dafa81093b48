// Fiduccia-Mattheyses bipartitioning on a cell hypergraph.
//
// Used by the recursive min-cut placer. The interface is a plain hypergraph
// (vertices with weights, hyperedges as vertex lists) so it is testable
// independently of the netlist.
//
// Cost: pin lists are built once per call; each pass is O(pins + n * n /
// 64) word operations — per-side gain buckets (|gain| <= max vertex degree)
// hold their vertices in index-ordered bitsets, so a move costs a scan of
// bitset words, not of vertices. The placer hands FM regions of at most
// fm_threshold cells (a few dozen words), so in practice a pass is O(pins).
//
// Tie-break contract: every step moves the unlocked vertex of highest gain
// among those whose move keeps side 0 within the balance bound, ties going
// to the lowest vertex index; a pass keeps the shortest move prefix of
// strictly greatest cumulative gain. The result is therefore exactly that
// of the textbook O(n^2) scan, which is what keeps placements — and every
// wire cap and power number derived from them — bit-identical.
#pragma once

#include <cstdint>
#include <vector>

namespace tp {

struct FmOptions {
  /// Allowed deviation of side-0 weight from half the total (fraction).
  double balance_tolerance = 0.1;
  int max_passes = 6;
  std::uint64_t seed = 1;
};

struct FmResult {
  std::vector<std::uint8_t> side;  // per vertex: 0 or 1
  std::int64_t cut = 0;            // hyperedges spanning both sides
};

/// Partitions the hypergraph into two balanced sides minimizing the number
/// of cut hyperedges. `weights` are vertex areas (scaled to integers); a
/// hyperedge lists each of its vertices once.
FmResult fm_bipartition(const std::vector<std::int64_t>& weights,
                        const std::vector<std::vector<int>>& hyperedges,
                        const FmOptions& options = {});

}  // namespace tp
