// Fiduccia-Mattheyses bipartitioning on a cell hypergraph.
//
// Used by the recursive min-cut placer. The interface is a plain flat
// hypergraph (vertex weights plus hyperedges in CSR form) so it is testable
// independently of the netlist.
//
// Cost: a call builds its vertex-to-edge pin lists once; each pass is
// O(pins + n * n / 64) word operations — per-side gain buckets (|gain| <=
// max vertex degree) hold their vertices in index-ordered bitsets, so a
// move costs a scan of bitset words, not of vertices. The placer hands FM
// regions of at most fm_threshold cells (a few dozen words), so in practice
// a pass is O(pins). Every per-call and per-pass buffer lives in an
// FmWorkspace that the caller keeps across calls, so a placement allocates
// FM scratch a handful of times, not once per region.
//
// Early pass exit: an edge with locked vertices on both sides stays cut for
// the rest of the pass and every gain update it would trigger is a no-op,
// so it is skipped ("dead"). Each move's gain equals the drop in cut and
// dead edges stay cut, so once the best prefix gain reaches start_cut -
// dead_edges no later prefix can be strictly better: the pass stops there
// and keeps the prefix a full pass would keep.
//
// Tie-break contract: every step moves the unlocked vertex of highest gain
// among those whose move keeps side 0 within the balance bound, ties going
// to the lowest vertex index; a pass keeps the shortest move prefix of
// strictly greatest cumulative gain. The result is therefore exactly that
// of the textbook O(n^2) scan, which is what keeps placements — and every
// wire cap and power number derived from them — bit-identical. It does not
// depend on the order of the edges or of the members within an edge: gains
// are sums and buckets are index-ordered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tp {

struct FmOptions {
  /// Allowed deviation of side-0 weight from half the total (fraction).
  double balance_tolerance = 0.1;
  int max_passes = 6;
  std::uint64_t seed = 1;
};

/// Vertices with integer weights (scaled cell areas) and hyperedges in CSR
/// form: edge e lists its vertices, each once, in
/// pins[edge_begin[e] .. edge_begin[e + 1]).
struct Hypergraph {
  std::vector<std::int64_t> weights;
  std::vector<int> edge_begin = {0};
  std::vector<int> pins;

  [[nodiscard]] std::size_t num_vertices() const { return weights.size(); }
  [[nodiscard]] std::size_t num_edges() const {
    return edge_begin.size() - 1;
  }
  [[nodiscard]] std::span<const int> edge(std::size_t e) const {
    return {pins.data() + edge_begin[e], pins.data() + edge_begin[e + 1]};
  }

  /// Empties the graph, keeping its capacity for the next one.
  void clear() {
    weights.clear();
    edge_begin.assign(1, 0);
    pins.clear();
  }
};

/// Work counters of FM calls, summed over calls with +=.
struct FmStats {
  std::int64_t passes = 0;
  std::int64_t moves = 0;        // tentative moves, kept or undone
  std::int64_t early_exits = 0;  // passes the dead-edge bound cut short

  FmStats& operator+=(const FmStats& other) {
    passes += other.passes;
    moves += other.moves;
    early_exits += other.early_exits;
    return *this;
  }
};

struct FmResult {
  std::vector<std::uint8_t> side;  // per vertex: 0 or 1
  std::int64_t cut = 0;            // hyperedges spanning both sides
  FmStats stats;
};

/// fm_bipartition's scratch, reused across calls. It carries no state from
/// one call to the next, only capacity; one workspace serves one thread.
struct FmWorkspace {
  struct EdgeState {
    std::int32_t count[2] = {0, 0};   // pins per side
    std::int32_t locked[2] = {0, 0};  // locked pins per side (this pass)
  };
  std::vector<int> vertex_begin;  // CSR: vertex_edges[vertex_begin[v]..]
  std::vector<int> vertex_edges;
  std::vector<EdgeState> edges;
  std::vector<int> gain;
  std::vector<std::uint8_t> locked;
  /// Gain buckets: bucket b's vertex bitset is bucket_words[b * stride ..].
  std::vector<std::uint64_t> bucket_words;
  std::vector<int> bucket_size;
  std::vector<int> moves;
  std::vector<int> order;  // initial-split shuffle
};

/// Partitions the hypergraph into two balanced sides minimizing the number
/// of cut hyperedges.
FmResult fm_bipartition(const Hypergraph& graph, const FmOptions& options,
                        FmWorkspace& workspace);

}  // namespace tp
