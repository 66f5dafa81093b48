// Specialized exact solver for the phase-assignment ILP.
//
// Canonical-form reduction (proof sketch): in an optimal solution it never
// helps to set K(u) = 1 for a node that still ends up back-to-back — flipping
// such a node to K(u) = 0 keeps its own cost and can only relax its
// predecessors' and PIs' constraints. Hence the optimum is characterized by
// the set S of single-latch nodes (K = indicator of S, G = 1 - indicator):
//
//   maximize  |S| - |{ p in PI : FO(p) intersects S }|
//   subject to S independent in the undirected conflict graph
//              (u-v for every FF edge u->v) and S avoiding self-loop nodes.
//
// This file solves that maximum-independent-set variant exactly via
// reductions (self-loop removal, isolated inclusion, degree-1 folding),
// connected-component decomposition, and per-component branch and bound with
// a greedy incumbent. When a component exceeds the time budget the greedy
// solution is kept and the result is marked non-optimal. The step budget is
// part of the result (a truncated search keeps what it held at that step),
// so the branch and bound skips repeated subtrees only by adding their
// recorded step counts (SubtreeMemo).
#include <algorithm>
#include <bit>
#include <numeric>

#include "src/phase/assignment.hpp"
#include "src/util/hash.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"

namespace tp {
namespace {

struct ConflictGraph {
  std::vector<std::vector<int>> adj;      // undirected, deduplicated
  std::vector<std::uint8_t> self_loop;    // node excluded from S
  std::vector<std::vector<int>> node_pis; // PIs covering each node
  int num_pis = 0;
};

ConflictGraph build_conflict_graph(const RegisterGraph& graph) {
  ConflictGraph cg;
  const std::size_t n = graph.regs.size();
  cg.adj.resize(n);
  cg.self_loop.assign(n, 0);
  cg.node_pis.resize(n);
  cg.num_pis = static_cast<int>(graph.data_pis.size());
  for (std::size_t u = 0; u < n; ++u) {
    for (const int v : graph.fanout[u]) {
      if (static_cast<std::size_t>(v) == u) {
        cg.self_loop[u] = 1;
      } else {
        cg.adj[u].push_back(v);
        cg.adj[static_cast<std::size_t>(v)].push_back(static_cast<int>(u));
      }
    }
  }
  for (auto& a : cg.adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  for (int p = 0; p < cg.num_pis; ++p) {
    for (const int v : graph.pi_fanout[static_cast<std::size_t>(p)]) {
      cg.node_pis[static_cast<std::size_t>(v)].push_back(p);
    }
  }
  return cg;
}

enum : std::int8_t { kUndecided = -1, kOut = 0, kIn = 1 };

/// Step counts of finished search subtrees, keyed by the state each starts
/// from: a direct-mapped cache, a newer subtree evicting an older one in
/// its slot. A subtree that recorded no new best depends on nothing but
/// that state, so replaying it is the same as adding its step count.
class SubtreeMemo {
 public:
  /// `words` per key; 256 slots per search node, at most 2^14 (a few
  /// hundred KB), which holds the repeats of the paper designs' searches.
  SubtreeMemo() = default;
  SubtreeMemo(std::size_t words, std::size_t nodes)
      : words_(words),
        mask_(std::min(std::bit_ceil(256 * nodes), std::size_t{1} << 14) - 1),
        keys_((mask_ + 1) * words),
        steps_(mask_ + 1, 0) {}

  /// Steps of the subtree starting from `key`, or 0 when unknown.
  [[nodiscard]] std::uint64_t find(const std::uint64_t* key) const {
    const std::size_t slot = slot_of(key);
    return std::equal(key, key + words_, &keys_[slot * words_])
               ? steps_[slot]
               : 0;
  }

  void insert(const std::uint64_t* key, std::uint64_t steps) {
    const std::size_t slot = slot_of(key);
    std::copy(key, key + words_, &keys_[slot * words_]);
    steps_[slot] = steps;
  }

 private:
  [[nodiscard]] std::size_t slot_of(const std::uint64_t* key) const {
    std::uint64_t hash = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      hash = util::splitmix64(hash ^ key[w]);
    }
    return hash & mask_;
  }

  std::size_t words_ = 0;
  std::size_t mask_ = 0;
  std::vector<std::uint64_t> keys_;   // words_ per slot
  std::vector<std::uint64_t> steps_;  // 0 marks an empty slot
};

/// Branch-and-bound over one connected component.
class ComponentSearch {
 public:
  ComponentSearch(const ConflictGraph& cg, std::vector<int> nodes,
                  std::vector<std::int8_t>& status, double deadline_s,
                  Stopwatch& timer)
      : cg_(cg),
        nodes_(std::move(nodes)),
        status_(status),
        deadline_s_(deadline_s),
        timer_(timer) {
    // Branch high-degree nodes first: they constrain the most.
    std::sort(nodes_.begin(), nodes_.end(), [&](int a, int b) {
      return cg_.adj[static_cast<std::size_t>(a)].size() >
             cg_.adj[static_cast<std::size_t>(b)].size();
    });
  }

  /// Runs the search; returns true when the component was solved to
  /// optimality. The best found membership is applied to `status_`.
  /// Components above this size skip the exact search: branch and bound
  /// cannot close such instances anyway, and the incumbent's local search is
  /// what determines quality there (mirrors commercial-solver time-outs).
  static constexpr std::size_t kExactLimit = 400;

  bool run() {
    build_incumbent();
    if (nodes_.size() > kExactLimit) {
      truncated_ = true;
    } else {
      build_local();
      dfs(0, 0, static_cast<int>(nodes_.size()));
    }
    // Apply the best assignment.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      status_[static_cast<std::size_t>(nodes_[i])] = best_assign_[i];
    }
    return !truncated_;
  }

 private:
  /// The search's view of the component, indexed by branch position i
  /// (node nodes_[i]): in-component adjacency and component-local PI ids in
  /// CSR form, and whether a node is blocked by a neighbor the reductions
  /// put in S (fixed for the whole search — an undecided node never has an
  /// included in-component neighbor, since including a node excludes its
  /// undecided neighbors).
  void build_local() {
    const std::size_t m = nodes_.size();
    std::vector<int> position(status_.size(), -1);
    for (std::size_t i = 0; i < m; ++i) {
      position[static_cast<std::size_t>(nodes_[i])] = static_cast<int>(i);
    }
    std::vector<int> local_pi(static_cast<std::size_t>(cg_.num_pis), -1);
    int num_local_pis = 0;
    adj_begin_.assign(1, 0);
    pi_begin_.assign(1, 0);
    blocked_.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<std::size_t>(nodes_[i]);
      blocked_[i] = cg_.self_loop[u];
      for (const int v : cg_.adj[u]) {
        const int local = position[static_cast<std::size_t>(v)];
        if (local >= 0) {
          adj_.push_back(local);
        } else if (status_[static_cast<std::size_t>(v)] == kIn) {
          blocked_[i] = 1;
        }
      }
      adj_begin_.push_back(adj_.size());
      for (const int p : cg_.node_pis[u]) {
        int& id = local_pi[static_cast<std::size_t>(p)];
        if (id < 0) id = num_local_pis++;
        pis_.push_back(id);
      }
      pi_begin_.push_back(pis_.size());
    }
    local_status_.assign(m, kUndecided);
    pi_count_.assign(static_cast<std::size_t>(num_local_pis), 0);
    // Memo key: the open (undecided) positions, the touched PIs, then one
    // word for the branch position and the bound's slack.
    pi_word_ = (m + 63) / 64;
    key_.assign(
        pi_word_ + (static_cast<std::size_t>(num_local_pis) + 63) / 64 + 1, 0);
    for (std::size_t i = 0; i < m; ++i) flip_open(i);
    memo_ = SubtreeMemo(key_.size(), m);
  }

  void flip_open(std::size_t i) {
    key_[i / 64] ^= std::uint64_t{1} << (i % 64);
  }

  /// Moves position i between undecided and decided (`status`).
  void decide(std::size_t i, std::int8_t status) {
    flip_open(i);
    local_status_[i] = status;
  }

  /// Marginal gain of adding node i to S: +1 minus newly-touched PI
  /// penalties.
  int include_gain(std::size_t i) const {
    int gain = 1;
    for (std::size_t k = pi_begin_[i]; k < pi_begin_[i + 1]; ++k) {
      if (pi_count_[static_cast<std::size_t>(pis_[k])] == 0) --gain;
    }
    return gain;
  }

  void count_pis(std::size_t i, int delta) {
    for (std::size_t k = pi_begin_[i]; k < pi_begin_[i + 1]; ++k) {
      const auto p = static_cast<std::size_t>(pis_[k]);
      const bool touched = pi_count_[p] != 0;
      pi_count_[p] += delta;
      if (touched != (pi_count_[p] != 0)) {
        key_[pi_word_ + p / 64] ^= std::uint64_t{1} << (p % 64);
      }
    }
  }

  /// Greedy + local-search incumbent, computed on scratch state so the
  /// exact search starts from a clean all-undecided component.
  ///
  /// Greedy alone is weak on dense layered graphs (the crypto-pipeline
  /// shape), where the optimum selects alternate layers. The plateau-
  /// accepting (1,1)-swap walk — remove the single conflicting member, add
  /// the candidate, accept on non-negative delta — reliably drifts toward
  /// that structure.
  void build_incumbent() {
    Rng rng(0xC0FFEEULL ^ (nodes_.size() * 2654435761ULL));
    std::vector<std::uint8_t> in_s(status_.size(), 0);
    std::vector<int> pi_count(static_cast<std::size_t>(cg_.num_pis), 0);
    int gain = 0;

    auto marginal_gain = [&](int u) {
      int m = 1;
      for (const int p : cg_.node_pis[static_cast<std::size_t>(u)]) {
        if (pi_count[static_cast<std::size_t>(p)] == 0) --m;
      }
      return m;
    };
    auto removal_delta = [&](int u) {
      int d = -1;
      for (const int p : cg_.node_pis[static_cast<std::size_t>(u)]) {
        if (pi_count[static_cast<std::size_t>(p)] == 1) ++d;
      }
      return d;
    };
    auto add = [&](int u) {
      gain += marginal_gain(u);
      in_s[static_cast<std::size_t>(u)] = 1;
      for (const int p : cg_.node_pis[static_cast<std::size_t>(u)]) {
        ++pi_count[static_cast<std::size_t>(p)];
      }
    };
    auto remove = [&](int u) {
      gain += removal_delta(u);
      in_s[static_cast<std::size_t>(u)] = 0;
      for (const int p : cg_.node_pis[static_cast<std::size_t>(u)]) {
        --pi_count[static_cast<std::size_t>(p)];
      }
    };
    auto conflicts_of = [&](int u, int& the_one) {
      int count = 0;
      for (const int v : cg_.adj[static_cast<std::size_t>(u)]) {
        if (in_s[static_cast<std::size_t>(v)]) {
          ++count;
          the_one = v;
          if (count > 1) break;
        }
      }
      return count;
    };

    // Greedy seed, low-degree first.
    std::vector<int> order = nodes_;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return cg_.adj[static_cast<std::size_t>(a)].size() <
             cg_.adj[static_cast<std::size_t>(b)].size();
    });
    for (const int u : order) {
      if (cg_.self_loop[static_cast<std::size_t>(u)]) continue;
      int w = -1;
      if (conflicts_of(u, w) == 0 && marginal_gain(u) > 0) add(u);
    }

    // Plateau-accepting swap walk.
    const std::size_t iters =
        std::min<std::size_t>(400'000, 120 * nodes_.size());
    for (std::size_t it = 0; it < iters; ++it) {
      const int u = nodes_[rng.below(nodes_.size())];
      const auto su = static_cast<std::size_t>(u);
      if (cg_.self_loop[su]) continue;
      if (in_s[su]) {
        if (removal_delta(u) > 0) remove(u);
        continue;
      }
      int w = -1;
      const int conflicts = conflicts_of(u, w);
      if (conflicts == 0) {
        if (marginal_gain(u) >= 0) add(u);
      } else if (conflicts == 1) {
        // Tentative swap; revert on a strictly negative delta.
        const int before = gain;
        remove(w);
        add(u);
        if (gain < before) {
          remove(u);
          add(w);
        }
      }
    }

    best_gain_ = std::max(best_gain_, gain);
    best_assign_.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      best_assign_[i] = in_s[static_cast<std::size_t>(nodes_[i])] ? kIn : kOut;
    }
  }

  void record_best(int gain) {
    if (gain <= best_gain_) return;
    best_gain_ = gain;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      best_assign_[i] = local_status_[i] == kIn ? kIn : kOut;
    }
  }

  /// Per-component search budget: beyond this the incumbent is already the
  /// answer in practice and the proof is not worth the wall clock.
  static constexpr std::uint64_t kMaxSteps = 4'000'000;

  /// Counts `n` search steps; past the step or time budget the search is
  /// truncated. The clock is read once per 2048 steps.
  void count_steps(std::uint64_t n) {
    const std::uint64_t before = steps_;
    steps_ += n;
    if (steps_ > kMaxSteps ||
        ((before >> 11) != (steps_ >> 11) && timer_.seconds() > deadline_s_)) {
      truncated_ = true;
    }
  }

  /// One search node: one step, then a bound check, then the branches.
  /// A subtree that finishes without recording a new best is memoized by
  /// its starting state (open positions, touched PIs, position, slack
  /// over the best) — everything its course depends on — so a repeat of
  /// that state adds the recorded step count instead of re-searching it.
  /// Step counts, and so truncation and the result, are exactly those of
  /// the plain search.
  void dfs(std::size_t index, int gain, int undecided) {
    // Optimistic bound; at a leaf (undecided == 0) it is exactly
    // record_best's improvement test, so it may come first.
    if (truncated_ || gain + undecided <= best_gain_) {
      count_steps(1);
      return;
    }
    const std::uint64_t state =
        std::uint64_t{index} << 32 |
        static_cast<std::uint32_t>(gain + undecided - best_gain_);
    key_.back() = state;
    if (const std::uint64_t steps = memo_.find(key_.data())) {
      count_steps(steps);
      return;
    }
    const std::uint64_t start = steps_;
    const int best_before = best_gain_;
    count_steps(1);
    if (!truncated_) branch(index, gain, undecided);
    if (!truncated_ && best_gain_ == best_before) {
      key_.back() = state;  // the branches restored every other key word
      memo_.insert(key_.data(), steps_ - start);
    }
  }

  void branch(std::size_t index, int gain, int undecided) {
    // Skip already-decided nodes (excluded by a previous inclusion).
    while (index < nodes_.size() && local_status_[index] != kUndecided) {
      ++index;
    }
    if (index == nodes_.size()) {
      record_best(gain);
      return;
    }
    // The node is decided in both branches.
    decide(index, kOut);
    // Branch 1: include the node (illegal for self-loop nodes and nodes
    // next to one the reductions included).
    if (!blocked_[index]) {
      const int marginal = include_gain(index);
      count_pis(index, +1);
      local_status_[index] = kIn;
      // Neighbors this inclusion excludes, on one stack shared by every
      // depth (no allocation per branch).
      const std::size_t mark = newly_out_.size();
      for (std::size_t a = adj_begin_[index]; a < adj_begin_[index + 1]; ++a) {
        const auto v = static_cast<std::size_t>(adj_[a]);
        if (local_status_[v] == kUndecided) {
          decide(v, kOut);
          newly_out_.push_back(v);
        }
      }
      dfs(index + 1, gain + marginal,
          undecided - 1 - static_cast<int>(newly_out_.size() - mark));
      for (std::size_t k = mark; k < newly_out_.size(); ++k) {
        decide(newly_out_[k], kUndecided);
      }
      newly_out_.resize(mark);
      count_pis(index, -1);
      local_status_[index] = kOut;
    }
    // Branch 2: exclude the node.
    dfs(index + 1, gain, undecided - 1);
    decide(index, kUndecided);
  }

  const ConflictGraph& cg_;
  std::vector<int> nodes_;
  std::vector<std::int8_t>& status_;
  // Search state (build_local).
  std::vector<std::size_t> adj_begin_;
  std::vector<int> adj_;
  std::vector<std::size_t> pi_begin_;
  std::vector<int> pis_;
  std::vector<std::uint8_t> blocked_;
  std::vector<std::int8_t> local_status_;
  std::vector<int> pi_count_;
  std::vector<std::size_t> newly_out_;
  std::size_t pi_word_ = 0;        // first PI word of key_
  std::vector<std::uint64_t> key_;  // memo key of the current state
  SubtreeMemo memo_;
  double deadline_s_;
  Stopwatch& timer_;

  int best_gain_ = -1;
  std::vector<std::int8_t> best_assign_;
  std::uint64_t steps_ = 0;
  bool truncated_ = false;
};

}  // namespace

PhaseAssignment assign_phases_specialized(const RegisterGraph& graph,
                                          double time_limit_s) {
  const ConflictGraph cg = build_conflict_graph(graph);
  const std::size_t n = graph.regs.size();
  std::vector<std::int8_t> status(n, kUndecided);

  // Reduction: self-loop nodes can never be single latches.
  for (std::size_t u = 0; u < n; ++u) {
    if (cg.self_loop[u]) status[u] = kOut;
  }
  // Reduction: isolated nodes without PI coverage always join S. Degree-1
  // nodes without PI coverage fold their neighbor out (classic unit-weight
  // MIS argument: swapping the neighbor for the leaf never loses).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (status[u] != kUndecided || !cg.node_pis[u].empty() ||
          cg.self_loop[u]) {
        continue;
      }
      int undecided_neighbors = 0;
      int the_neighbor = -1;
      bool neighbor_in = false;
      for (const int v : cg.adj[u]) {
        if (status[static_cast<std::size_t>(v)] == kIn) neighbor_in = true;
        if (status[static_cast<std::size_t>(v)] == kUndecided) {
          ++undecided_neighbors;
          the_neighbor = v;
        }
      }
      if (neighbor_in) {
        status[u] = kOut;
        changed = true;
      } else if (undecided_neighbors == 0) {
        status[u] = kIn;  // isolated (all neighbors decided out)
        changed = true;
      } else if (undecided_neighbors == 1) {
        status[u] = kIn;
        status[static_cast<std::size_t>(the_neighbor)] = kOut;
        changed = true;
      }
    }
  }

  // Connected components over undecided nodes; PIs glue the nodes they
  // cover into one component (penalties couple their decisions).
  std::vector<int> component(n, -1);
  std::vector<std::vector<int>> components;
  std::vector<std::vector<int>> pi_nodes(static_cast<std::size_t>(cg.num_pis));
  for (std::size_t u = 0; u < n; ++u) {
    if (status[u] != kUndecided) continue;
    for (const int p : cg.node_pis[u]) {
      pi_nodes[static_cast<std::size_t>(p)].push_back(static_cast<int>(u));
    }
  }
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (status[seed] != kUndecided || component[seed] != -1) continue;
    std::vector<int> members;
    std::vector<int> stack{static_cast<int>(seed)};
    component[seed] = static_cast<int>(components.size());
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      members.push_back(u);
      auto visit = [&](int v) {
        if (status[static_cast<std::size_t>(v)] == kUndecided &&
            component[static_cast<std::size_t>(v)] == -1) {
          component[static_cast<std::size_t>(v)] =
              static_cast<int>(components.size());
          stack.push_back(v);
        }
      };
      for (const int v : cg.adj[static_cast<std::size_t>(u)]) visit(v);
      for (const int p : cg.node_pis[static_cast<std::size_t>(u)]) {
        for (const int v : pi_nodes[static_cast<std::size_t>(p)]) visit(v);
      }
    }
    components.push_back(std::move(members));
  }

  Stopwatch timer;
  bool optimal = true;
  for (auto& members : components) {
    ComponentSearch search(cg, std::move(members), status, time_limit_s,
                           timer);
    optimal &= search.run();
  }

  std::vector<std::uint8_t> k(n, 0);
  for (std::size_t u = 0; u < n; ++u) k[u] = (status[u] == kIn) ? 1 : 0;
  PhaseAssignment a = assignment_from_k(graph, std::move(k));
  a.optimal = optimal;
  return a;
}

}  // namespace tp
