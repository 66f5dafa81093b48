#include "src/place/fm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "src/util/rng.hpp"

namespace tp {
namespace {

/// Classic FM machinery for one fm_bipartition call: pin lists built once,
/// then per pass per-side gain buckets, tentative moves with locking, and
/// best-prefix rollback. All buffers are the workspace's.
///
/// Selection contract (what keeps placements bit-identical to a full
/// vertex scan): each step moves the unlocked, balance-legal vertex of
/// highest gain, ties going to the lowest index. Within a bucket vertices
/// are visited in index order, buckets from the highest gain down, and the
/// two sides' candidates are compared by (gain, -index).
class Fm {
 public:
  Fm(const Hypergraph& graph, double balance_tolerance, FmWorkspace& ws,
     FmStats& stats)
      : graph_(graph), ws_(ws), stats_(stats), n_(graph.num_vertices()) {
    // Vertex -> edge CSR: count at v + 2, prefix-sum, then filling through
    // vertex_begin[v + 1] leaves vertex_begin[v] at v's first pin.
    auto& begin = ws_.vertex_begin;
    begin.assign(n_ + 2, 0);
    for (const int v : graph_.pins) ++begin[static_cast<std::size_t>(v) + 2];
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    ws_.vertex_edges.resize(graph_.pins.size());
    for (std::size_t e = 0; e < graph_.num_edges(); ++e) {
      for (const int v : graph_.edge(e)) {
        ws_.vertex_edges[static_cast<std::size_t>(
            begin[static_cast<std::size_t>(v) + 1]++)] = static_cast<int>(e);
      }
    }
    // An unlocked vertex's gain counts +1/-1 per pin, so |gain| <= degree.
    for (std::size_t v = 0; v < n_; ++v) {
      max_gain_ = std::max(max_gain_, begin[v + 1] - begin[v]);
    }
    side_buckets_ = 2 * static_cast<std::size_t>(max_gain_) + 1;
    stride_ = (n_ + 63) / 64;
    const std::int64_t total = std::accumulate(
        graph_.weights.begin(), graph_.weights.end(), std::int64_t{0});
    lo_ = static_cast<std::int64_t>((0.5 - balance_tolerance) *
                                    static_cast<double>(total));
    hi_ = static_cast<std::int64_t>((0.5 + balance_tolerance) *
                                    static_cast<double>(total));
    const auto [min_w, max_w] =
        std::minmax_element(graph_.weights.begin(), graph_.weights.end());
    min_weight_ = *min_w;
    max_weight_ = *max_w;
  }

  /// Recounts every edge's pins per side and every vertex's gain under
  /// `side`; returns the cut.
  std::int64_t recount(const std::vector<std::uint8_t>& side) {
    ws_.edges.assign(graph_.num_edges(), {});
    ws_.gain.assign(n_, 0);
    std::int64_t cut = 0;
    for (std::size_t e = 0; e < graph_.num_edges(); ++e) {
      auto& c = ws_.edges[e].count;
      for (const int v : graph_.edge(e)) {
        ++c[side[static_cast<std::size_t>(v)]];
      }
      cut += c[0] > 0 && c[1] > 0;
      // An edge adds +1 to a vertex's gain when the vertex is its only pin
      // on its side (moving uncuts it), -1 when the other side is empty
      // (moving cuts it), and nothing with >= 2 pins on each side.
      if (c[0] >= 2 && c[1] >= 2) continue;
      for (const int v : graph_.edge(e)) {
        const int from = side[static_cast<std::size_t>(v)];
        auto& gain = ws_.gain[static_cast<std::size_t>(v)];
        gain += (c[from] == 1) - (c[1 - from] == 0);
      }
    }
    return cut;
  }

  /// One pass over `side`, which starts with cut `start_cut()`; returns the
  /// cut improvement (>= 0 kept, 0 means converged).
  std::int64_t run(std::vector<std::uint8_t>& side) {
    side_ = &side;
    ++stats_.passes;
    std::int64_t w0 = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      if (!side[v]) w0 += graph_.weights[v];
    }
    start_cut_ = recount(side);
    ws_.bucket_words.assign(2 * side_buckets_ * stride_, 0);
    ws_.bucket_size.assign(2 * side_buckets_, 0);
    top_ = {0, 0};
    for (std::size_t v = 0; v < n_; ++v) insert(static_cast<int>(v));
    ws_.locked.assign(n_, 0);
    ws_.moves.clear();
    std::int64_t running = 0;
    std::int64_t best_running = 0;
    std::size_t best_prefix = 0;
    std::int64_t dead = 0;  // cut edges locked on both sides

    // Each move's gain is the drop in cut and dead edges stay cut, so once
    // the best prefix reaches start_cut_ - dead no later one is better.
    while (best_running < start_cut_ - dead) {
      const int best = pick(w0);
      if (best < 0) break;
      // Apply the tentative move and update neighbor gains.
      const auto bv = static_cast<std::size_t>(best);
      const int from = side[bv];
      const int to = 1 - from;
      const int best_gain = ws_.gain[bv];
      erase(best);
      ws_.locked[bv] = 1;
      w0 += from ? graph_.weights[bv] : -graph_.weights[bv];
      for (int p = ws_.vertex_begin[bv]; p < ws_.vertex_begin[bv + 1]; ++p) {
        const auto e = static_cast<std::size_t>(
            ws_.vertex_edges[static_cast<std::size_t>(p)]);
        auto& [c, locked] = ws_.edges[e];
        if (locked[0] > 0 && locked[1] > 0) continue;  // dead: all no-ops
        // Gain updates follow the standard FM case analysis.
        if (c[to] == 0) {
          bump_all(e, -1, +1);
        } else if (c[to] == 1) {
          bump_all(e, to, -1);
        }
        --c[from];
        ++c[to];
        if (c[from] == 0) {
          bump_all(e, -1, -1);
        } else if (c[from] == 1) {
          bump_all(e, from, +1);
        }
        if (++locked[to] == 1 && locked[from] > 0) ++dead;
      }
      side[bv] = static_cast<std::uint8_t>(to);
      running += best_gain;
      ws_.moves.push_back(best);
      if (running > best_running) {
        best_running = running;
        best_prefix = ws_.moves.size();
      }
    }
    stats_.moves += static_cast<std::int64_t>(ws_.moves.size());
    if (ws_.moves.size() < n_ && best_running >= start_cut_ - dead) {
      ++stats_.early_exits;
    }

    // Keep the best prefix, undo the rest.
    for (std::size_t i = ws_.moves.size(); i > best_prefix; --i) {
      side[static_cast<std::size_t>(ws_.moves[i - 1])] ^= 1;
    }
    return best_running;
  }

  [[nodiscard]] std::int64_t start_cut() const { return start_cut_; }

 private:
  [[nodiscard]] std::size_t bucket_of(int v) const {
    const auto sv = static_cast<std::size_t>(v);
    return static_cast<std::size_t>((*side_)[sv]) * side_buckets_ +
           static_cast<std::size_t>(ws_.gain[sv] + max_gain_);
  }

  void insert(int v) {
    const std::size_t b = bucket_of(v);
    ws_.bucket_words[b * stride_ + static_cast<std::size_t>(v) / 64] |=
        std::uint64_t{1} << (v % 64);
    ++ws_.bucket_size[b];
    const int s = (*side_)[static_cast<std::size_t>(v)];
    top_[s] =
        std::max(top_[s], ws_.gain[static_cast<std::size_t>(v)] + max_gain_);
  }

  void erase(int v) {
    const std::size_t b = bucket_of(v);
    ws_.bucket_words[b * stride_ + static_cast<std::size_t>(v) / 64] &=
        ~(std::uint64_t{1} << (v % 64));
    --ws_.bucket_size[b];
  }

  /// Lowest member of bucket `b` at or above `from`, or -1.
  [[nodiscard]] int next(std::size_t b, int from) const {
    const std::uint64_t* words = ws_.bucket_words.data() + b * stride_;
    auto w = static_cast<std::size_t>(from) / 64;
    if (w >= stride_) return -1;
    std::uint64_t bits = words[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == stride_) return -1;
      bits = words[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

  /// Adds `delta` to the gain of every unlocked pin of edge `e` (only those
  /// on side `only_side` unless it is -1), re-bucketing each.
  void bump_all(std::size_t e, int only_side, int delta) {
    for (const int u : graph_.edge(e)) {
      const auto su = static_cast<std::size_t>(u);
      if (ws_.locked[su] || (only_side >= 0 && (*side_)[su] != only_side)) {
        continue;
      }
      erase(u);
      ws_.gain[su] += delta;
      insert(u);
    }
  }

  /// The unlocked, balance-legal vertex of highest gain, lowest index on
  /// ties; -1 when no move keeps the balance.
  int pick(std::int64_t w0) {
    int best = -1;
    int best_gain = 0;
    for (int s = 0; s < 2; ++s) {
      // Weights whose move off side s keeps side-0 weight in [lo, hi].
      const std::int64_t w_min = s ? lo_ - w0 : w0 - hi_;
      const std::int64_t w_max = s ? hi_ - w0 : w0 - lo_;
      if (w_max < min_weight_ || w_min > max_weight_) continue;
      const std::size_t base = static_cast<std::size_t>(s) * side_buckets_;
      for (int g = top_[s]; g >= 0; --g) {
        const int gain = g - max_gain_;
        if (best >= 0 && gain < best_gain) break;
        const std::size_t b = base + static_cast<std::size_t>(g);
        if (ws_.bucket_size[b] == 0) {
          if (g == top_[s] && g > 0) --top_[s];
          continue;
        }
        // On a gain tie with the other side only lower indices can win.
        const int limit =
            best >= 0 && gain == best_gain ? best : static_cast<int>(n_);
        int v = next(b, 0);
        for (; v >= 0 && v < limit; v = next(b, v + 1)) {
          const std::int64_t w = graph_.weights[static_cast<std::size_t>(v)];
          if (w >= w_min && w <= w_max) break;
        }
        if (v >= 0 && v < limit) {
          best = v;
          best_gain = gain;
          break;
        }
      }
    }
    return best;
  }

  const Hypergraph& graph_;
  FmWorkspace& ws_;
  FmStats& stats_;
  std::size_t n_;
  int max_gain_ = 0;
  std::size_t side_buckets_ = 0;  // buckets per side: 2 * max_gain_ + 1
  std::size_t stride_ = 0;        // bitset words per bucket
  std::int64_t lo_ = 0, hi_ = 0;
  std::int64_t min_weight_ = 0, max_weight_ = 0;

  // Per-pass state.
  std::vector<std::uint8_t>* side_ = nullptr;
  std::int64_t start_cut_ = 0;
  std::array<int, 2> top_{};  // per side: highest possibly non-empty offset
};

}  // namespace

FmResult fm_bipartition(const Hypergraph& graph, const FmOptions& options,
                        FmWorkspace& workspace) {
  FmResult result;
  const std::size_t n = graph.num_vertices();
  result.side.assign(n, 0);
  if (n <= 1) return result;
  // Random area-balanced initial split.
  Rng rng(options.seed);
  std::vector<int>& order = workspace.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const std::int64_t total = std::accumulate(
      graph.weights.begin(), graph.weights.end(), std::int64_t{0});
  std::int64_t w0 = 0;
  for (const int v : order) {
    const auto sv = static_cast<std::size_t>(v);
    if (w0 < total / 2) {
      w0 += graph.weights[sv];
    } else {
      result.side[sv] = 1;
    }
  }
  Fm fm(graph, options.balance_tolerance, workspace, result.stats);
  if (options.max_passes <= 0) {
    result.cut = fm.recount(result.side);
    return result;
  }
  // The cut after a pass is its starting cut minus the gain it kept.
  for (int pass = 0; pass < options.max_passes; ++pass) {
    const std::int64_t gain = fm.run(result.side);
    result.cut = fm.start_cut() - gain;
    if (gain <= 0) break;
  }
  return result;
}

}  // namespace tp
