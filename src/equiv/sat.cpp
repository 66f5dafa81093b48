#include "src/equiv/sat.hpp"

#include <algorithm>

namespace tp::equiv {

int SatSolver::new_var() {
  const int v = num_vars();
  assigns_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(-1);
  activity_.push_back(0.0);
  polarity_.push_back(0);
  seen_.push_back(0);
  model_.push_back(0);
  heap_index_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool SatSolver::add_clause(std::vector<int> lits) {
  if (!ok_) return false;
  // Level-0 simplification: dedup, drop satisfied clauses and false literals.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<int> cl;
  cl.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const int lit = lits[i];
    if (i + 1 < lits.size() && lits[i + 1] == negate(lit)) return true;
    const int val = value_of(lit);
    if (val == 1 && level_[lit >> 1] == 0) return true;   // already satisfied
    if (val == 0 && level_[lit >> 1] == 0) continue;      // false forever
    cl.push_back(lit);
  }
  if (cl.empty()) {
    ok_ = false;
    return false;
  }
  if (cl.size() == 1) {
    if (value_of(cl[0]) == 0) {
      ok_ = false;
      return false;
    }
    if (value_of(cl[0]) == -1) enqueue(cl[0], -1);
    return ok_;
  }
  attach(cl);
  return true;
}

void SatSolver::enqueue(int lit, int reason) {
  const int v = lit >> 1;
  assigns_[v] = static_cast<signed char>(1 - (lit & 1));
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(lit);
}

int SatSolver::attach(std::span<const int> lits) {
  const int cr = static_cast<int>(arena_.size());
  arena_.push_back(static_cast<int>(lits.size()));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  watches_[lits[0]].push_back({cr, lits[1]});
  watches_[lits[1]].push_back({cr, lits[0]});
  return cr;
}

int SatSolver::propagate() {
  while (qhead_ < static_cast<int>(trail_.size())) {
    const int p = trail_[qhead_++];  // p just became true; p^1 became false
    ++num_propagations;
    const int false_lit = negate(p);
    std::vector<Watcher>& ws = watches_[false_lit];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value_of(w.blocker) == 1) {
        ws[keep++] = w;
        continue;
      }
      int* lits = &arena_[w.clause + 1];
      const int size = arena_[w.clause];
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const int first = lits[0];
      if (first != w.blocker && value_of(first) == 1) {
        ws[keep++] = {w.clause, first};  // satisfied: remember why
        continue;
      }
      bool moved = false;
      for (int k = 2; k < size; ++k) {
        if (value_of(lits[k]) != 0) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1]].push_back({w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      ws[keep++] = {w.clause, first};
      if (value_of(first) == 0) {  // conflict
        for (++i; i < ws.size(); ++i) ws[keep++] = ws[i];
        ws.resize(keep);
        qhead_ = static_cast<int>(trail_.size());
        return w.clause;
      }
      enqueue(first, w.clause);
    }
    ws.resize(keep);
  }
  return -1;
}

void SatSolver::analyze(int confl, std::vector<int>& learnt, int& bt_level) {
  learnt.assign(1, 0);  // slot 0: the asserting literal, filled at the end
  int counter = 0;
  int p = -1;
  int idx = static_cast<int>(trail_.size()) - 1;
  do {
    const int size = arena_[confl];
    for (int k = 1; k <= size; ++k) {
      const int q = arena_[confl + k];
      if (q == p) continue;
      const int v = q >> 1;
      if (seen_[v] == 0 && level_[v] > 0) {
        seen_[v] = 1;
        bump(v);
        if (level_[v] >= decision_level()) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    while (seen_[trail_[idx] >> 1] == 0) --idx;
    p = trail_[idx--];
    seen_[p >> 1] = 0;
    --counter;
    confl = reason_[p >> 1];
  } while (counter > 0);
  learnt[0] = negate(p);

  bt_level = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    seen_[learnt[i] >> 1] = 0;
    if (level_[learnt[i] >> 1] > bt_level) {
      bt_level = level_[learnt[i] >> 1];
      std::swap(learnt[1], learnt[i]);
    }
  }
}

void SatSolver::backtrack(int target) {
  if (decision_level() <= target) return;
  const int bound = trail_lim_[target];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const int v = trail_[i] >> 1;
    polarity_[v] = assigns_[v];
    assigns_[v] = -1;
    reason_[v] = -1;
    if (heap_index_[v] < 0) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target);
  qhead_ = bound;
}

SatResult SatSolver::solve(std::span<const int> assumptions) {
  ++num_solve_calls;
  if (!ok_) return SatResult::kUnsat;
  backtrack(0);
  std::int64_t conflicts = 0;
  std::int64_t restart_limit = 100;
  std::vector<int> learnt;
  for (;;) {
    const int confl = propagate();
    if (confl >= 0) {
      ++num_conflicts;
      ++conflicts;
      if (decision_level() == 0) {
        ok_ = false;
        return SatResult::kUnsat;
      }
      int bt_level = 0;
      analyze(confl, learnt, bt_level);
      // Never backjump into the middle of the assumption prefix in a way
      // that unassigns an assumption implied at a lower level: bt_level is
      // always < current level, and assumptions are re-decided on the way
      // back down, so plain backjumping stays sound.
      backtrack(bt_level);
      if (learnt.size() == 1) {
        if (value_of(learnt[0]) == 0) {
          ok_ = false;
          return SatResult::kUnsat;
        }
        if (value_of(learnt[0]) == -1) enqueue(learnt[0], -1);
      } else {
        enqueue(learnt[0], attach(learnt));
      }
      decay();
      if (conflict_limit_ > 0 && conflicts >= conflict_limit_) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      if (conflicts >= restart_limit) {
        restart_limit += restart_limit / 2;
        backtrack(0);
      }
      continue;
    }
    if (decision_level() < static_cast<int>(assumptions.size())) {
      const int p = assumptions[decision_level()];
      const int val = value_of(p);
      if (val == 0) {  // assumption contradicted by the formula
        backtrack(0);
        return SatResult::kUnsat;
      }
      new_decision_level();  // empty level when the assumption is implied
      if (val == -1) enqueue(p, -1);
      continue;
    }
    const int v = pick_branch_var();
    if (v < 0) {  // complete assignment: satisfiable
      for (int i = 0; i < num_vars(); ++i) {
        model_[i] = assigns_[i] < 0 ? 0 : assigns_[i];
      }
      backtrack(0);
      return SatResult::kSat;
    }
    ++num_decisions;
    new_decision_level();
    enqueue(polarity_[v] == 1 ? pos_lit(v) : neg_lit(v), -1);
  }
}

int SatSolver::pick_branch_var() {
  while (!heap_.empty()) {
    const int v = heap_pop();
    if (assigns_[v] < 0) return v;
  }
  return -1;
}

void SatSolver::bump(int var, double weight) {
  activity_[var] += var_inc_ * weight;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_index_[var] >= 0) heap_percolate_up(heap_index_[var]);
}

void SatSolver::heap_insert(int var) {
  heap_index_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_percolate_up(heap_index_[var]);
}

void SatSolver::heap_percolate_up(int pos) {
  const int v = heap_[pos];
  while (pos > 0) {
    const int parent = (pos - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[pos] = heap_[parent];
    heap_index_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = v;
  heap_index_[v] = pos;
}

void SatSolver::heap_percolate_down(int pos) {
  const int v = heap_[pos];
  const int size = static_cast<int>(heap_.size());
  for (;;) {
    int child = pos * 2 + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[pos] = heap_[child];
    heap_index_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = v;
  heap_index_[v] = pos;
}

int SatSolver::heap_pop() {
  const int top = heap_[0];
  heap_index_[top] = -1;
  const int last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_index_[last] = 0;
    heap_percolate_down(0);
  }
  return top;
}

}  // namespace tp::equiv
