#include "src/place/fm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "src/util/rng.hpp"

namespace tp {
namespace {

/// A set of vertex indices with ascending find-next: one bit per vertex.
/// FM regions stay below the placer's fm_threshold (a few dozen words), so
/// the lowest member at or above an index is a short scan of words.
class IndexSet {
 public:
  void reset(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    size_ = 0;
  }

  void insert(int v) {
    words_[static_cast<std::size_t>(v) / 64] |= std::uint64_t{1} << (v % 64);
    ++size_;
  }

  void erase(int v) {
    words_[static_cast<std::size_t>(v) / 64] &=
        ~(std::uint64_t{1} << (v % 64));
    --size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Lowest member >= `from`, or -1.
  [[nodiscard]] int next(int from) const {
    auto w = static_cast<std::size_t>(from) / 64;
    if (w >= words_.size()) return -1;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == words_.size()) return -1;
      bits = words_[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

 private:
  std::vector<std::uint64_t> words_;
  int size_ = 0;
};

/// Classic FM machinery for one fm_bipartition call: pin lists built once,
/// then per pass per-side gain buckets, tentative moves with locking, and
/// best-prefix rollback.
///
/// Selection contract (what keeps placements bit-identical to a full
/// vertex scan): each step moves the unlocked, balance-legal vertex of
/// highest gain, ties going to the lowest index. Within a bucket vertices
/// are visited in index order, buckets from the highest gain down, and the
/// two sides' candidates are compared by (gain, -index).
class Fm {
 public:
  Fm(const std::vector<std::int64_t>& weights,
     const std::vector<std::vector<int>>& hyperedges,
     double balance_tolerance)
      : weights_(weights),
        hyperedges_(hyperedges),
        n_(weights.size()),
        pin_begin_(n_ + 1, 0),
        edge_count_(hyperedges.size()),
        gain_(n_),
        locked_(n_) {
    for (const auto& edge : hyperedges_) {
      for (const int v : edge) ++pin_begin_[static_cast<std::size_t>(v) + 1];
    }
    std::partial_sum(pin_begin_.begin(), pin_begin_.end(), pin_begin_.begin());
    pins_.resize(pin_begin_.back());
    std::vector<std::size_t> fill(pin_begin_.begin(), pin_begin_.end() - 1);
    for (int e = 0; e < static_cast<int>(hyperedges_.size()); ++e) {
      for (const int v : hyperedges_[static_cast<std::size_t>(e)]) {
        pins_[fill[static_cast<std::size_t>(v)]++] = e;
      }
    }
    // An unlocked vertex's gain counts +1/-1 per pin, so |gain| <= degree.
    for (std::size_t v = 0; v < n_; ++v) {
      max_gain_ = std::max(
          max_gain_, static_cast<int>(pin_begin_[v + 1] - pin_begin_[v]));
    }
    buckets_.resize(2 * (2 * static_cast<std::size_t>(max_gain_) + 1));
    const std::int64_t total =
        std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
    lo_ = static_cast<std::int64_t>(
        (0.5 - balance_tolerance) * static_cast<double>(total));
    hi_ = static_cast<std::int64_t>(
        (0.5 + balance_tolerance) * static_cast<double>(total));
    const auto [min_w, max_w] =
        std::minmax_element(weights.begin(), weights.end());
    min_weight_ = *min_w;
    max_weight_ = *max_w;
  }

  /// One pass over `side`; returns the cut improvement (>= 0 kept, 0 means
  /// converged).
  std::int64_t run(std::vector<std::uint8_t>& side) {
    side_ = &side;
    std::int64_t w0 = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      if (!side[v]) w0 += weights_[v];
    }
    std::fill(edge_count_.begin(), edge_count_.end(), std::array<int, 2>{});
    for (std::size_t e = 0; e < hyperedges_.size(); ++e) {
      for (const int v : hyperedges_[e]) {
        ++edge_count_[e][side[static_cast<std::size_t>(v)]];
      }
    }
    // Initial gains: an edge contributes +1 when the vertex is its only pin
    // on its side (moving uncuts it), -1 when the other side is empty
    // (moving cuts it).
    for (auto& bucket : buckets_) bucket.reset(n_);
    top_ = {0, 0};
    for (std::size_t v = 0; v < n_; ++v) {
      const int from = side[v];
      int gain = 0;
      for (std::size_t p = pin_begin_[v]; p < pin_begin_[v + 1]; ++p) {
        const auto& c = edge_count_[static_cast<std::size_t>(pins_[p])];
        if (c[from] == 1) ++gain;
        if (c[1 - from] == 0) --gain;
      }
      gain_[v] = gain;
      insert(static_cast<int>(v));
    }
    std::fill(locked_.begin(), locked_.end(), 0);
    moves_.clear();
    prefix_gain_.clear();
    std::int64_t running = 0;

    for (int best = pick(w0); best >= 0; best = pick(w0)) {
      // Apply the tentative move and update neighbor gains.
      const auto bv = static_cast<std::size_t>(best);
      const int from = side[bv];
      const int to = 1 - from;
      const int best_gain = gain_[bv];
      erase(best);
      locked_[bv] = 1;
      w0 += from ? weights_[bv] : -weights_[bv];
      for (std::size_t p = pin_begin_[bv]; p < pin_begin_[bv + 1]; ++p) {
        const auto e = static_cast<std::size_t>(pins_[p]);
        auto& c = edge_count_[e];
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
      }
      side[bv] = static_cast<std::uint8_t>(to);
      running += best_gain;
      moves_.push_back(best);
      prefix_gain_.push_back(running);
    }

    // Keep the best prefix, undo the rest.
    std::int64_t best_running = 0;
    std::size_t best_prefix = 0;
    for (std::size_t i = 0; i < prefix_gain_.size(); ++i) {
      if (prefix_gain_[i] > best_running) {
        best_running = prefix_gain_[i];
        best_prefix = i + 1;
      }
    }
    for (std::size_t i = moves_.size(); i > best_prefix; --i) {
      side[static_cast<std::size_t>(moves_[i - 1])] ^= 1;
    }
    return best_running;
  }

 private:
  [[nodiscard]] std::size_t bucket_of(int v) const {
    const auto sv = static_cast<std::size_t>(v);
    return static_cast<std::size_t>((*side_)[sv]) *
               (2 * static_cast<std::size_t>(max_gain_) + 1) +
           static_cast<std::size_t>(gain_[sv] + max_gain_);
  }

  void insert(int v) {
    buckets_[bucket_of(v)].insert(v);
    const int s = (*side_)[static_cast<std::size_t>(v)];
    top_[s] =
        std::max(top_[s], gain_[static_cast<std::size_t>(v)] + max_gain_);
  }

  void erase(int v) { buckets_[bucket_of(v)].erase(v); }

  /// Adds `delta` to the gain of every unlocked pin of edge `e` (only those
  /// on side `only_side` unless it is -1), re-bucketing each.
  void bump_all(std::size_t e, int only_side, int delta) {
    for (const int u : hyperedges_[e]) {
      const auto su = static_cast<std::size_t>(u);
      if (locked_[su] || (only_side >= 0 && (*side_)[su] != only_side)) {
        continue;
      }
      erase(u);
      gain_[su] += delta;
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
      const std::size_t base = static_cast<std::size_t>(s) *
                               (2 * static_cast<std::size_t>(max_gain_) + 1);
      for (int g = top_[s]; g >= 0; --g) {
        const int gain = g - max_gain_;
        if (best >= 0 && gain < best_gain) break;
        const std::size_t b = base + static_cast<std::size_t>(g);
        if (buckets_[b].empty()) {
          if (g == top_[s] && g > 0) --top_[s];
          continue;
        }
        int v = buckets_[b].next(0);
        // On a gain tie with the other side only lower indices can win.
        const int limit =
            best >= 0 && gain == best_gain ? best : static_cast<int>(n_);
        for (; v >= 0 && v < limit; v = buckets_[b].next(v + 1)) {
          const std::int64_t w = weights_[static_cast<std::size_t>(v)];
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

  const std::vector<std::int64_t>& weights_;
  const std::vector<std::vector<int>>& hyperedges_;
  std::size_t n_;
  std::vector<std::size_t> pin_begin_;  // CSR: pins_[pin_begin_[v]..]
  std::vector<int> pins_;               // incident edges per vertex
  int max_gain_ = 0;
  std::int64_t lo_ = 0, hi_ = 0;
  std::int64_t min_weight_ = 0, max_weight_ = 0;

  // Per-pass state, reused across passes.
  std::vector<std::uint8_t>* side_ = nullptr;
  std::vector<std::array<int, 2>> edge_count_;
  std::vector<int> gain_;
  std::vector<std::uint8_t> locked_;
  /// Bucket (side, gain) at side * (2 * max_gain_ + 1) + gain + max_gain_.
  std::vector<IndexSet> buckets_;
  std::array<int, 2> top_{};  // per side: highest possibly non-empty offset
  std::vector<int> moves_;
  std::vector<std::int64_t> prefix_gain_;
};

std::int64_t cut_size(const std::vector<std::vector<int>>& hyperedges,
                      const std::vector<std::uint8_t>& side) {
  std::int64_t cut = 0;
  for (const auto& edge : hyperedges) {
    bool s0 = false, s1 = false;
    for (const int v : edge) {
      (side[static_cast<std::size_t>(v)] ? s1 : s0) = true;
    }
    cut += (s0 && s1);
  }
  return cut;
}

}  // namespace

FmResult fm_bipartition(const std::vector<std::int64_t>& weights,
                        const std::vector<std::vector<int>>& hyperedges,
                        const FmOptions& options) {
  FmResult result;
  const std::size_t n = weights.size();
  result.side.assign(n, 0);
  if (n <= 1) {
    result.cut = 0;
    return result;
  }
  // Random area-balanced initial split.
  Rng rng(options.seed);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const std::int64_t total =
      std::accumulate(weights.begin(), weights.end(), std::int64_t{0});
  std::int64_t w0 = 0;
  for (const int v : order) {
    const auto sv = static_cast<std::size_t>(v);
    if (w0 < total / 2) {
      result.side[sv] = 0;
      w0 += weights[sv];
    } else {
      result.side[sv] = 1;
    }
  }
  Fm fm(weights, hyperedges, options.balance_tolerance);
  for (int pass = 0; pass < options.max_passes; ++pass) {
    if (fm.run(result.side) <= 0) break;
  }
  result.cut = cut_size(hyperedges, result.side);
  return result;
}

}  // namespace tp
