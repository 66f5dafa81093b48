// Small incremental CDCL SAT solver used by the SAT-sweeping engine.
//
// Feature set deliberately chosen for the equivalence-checking workload —
// many small satisfiability queries over one CNF per proof phase:
//   - two-watched-literal propagation over a flat clause arena (a size word,
//     then the literals, all in one std::vector<int>), each watcher carrying
//     a blocker literal so an already-satisfied clause is skipped without
//     loading it,
//   - first-UIP conflict analysis with clause learning,
//   - VSIDS branching with phase saving, plus a weighted activity bump the
//     caller applies before a query (the SEC engine raises the top levels of
//     each miter's cone, so the search branches inside it first),
//   - geometric restarts,
//   - solving under assumptions (the SEC engine activates each per-query
//     miter through an assumption literal and retires it with a unit
//     clause, so one solver answers a whole proof phase's queries),
//   - a per-call conflict budget so one pathologically hard query degrades
//     to "unknown" instead of stalling the whole check.
//
// Literal encoding follows the usual convention: variable v has the positive
// literal 2v and the negative literal 2v+1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tp::equiv {

enum class SatResult { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  /// Creates a fresh variable and returns its index.
  int new_var();
  [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }

  [[nodiscard]] static int pos_lit(int var) { return var * 2; }
  [[nodiscard]] static int neg_lit(int var) { return var * 2 + 1; }
  [[nodiscard]] static int negate(int lit) { return lit ^ 1; }

  /// Adds a clause (level-0 simplification applied). Returns false when the
  /// formula is already unsatisfiable.
  bool add_clause(std::vector<int> lits);

  /// Solves the current formula under the given assumption literals.
  SatResult solve(std::span<const int> assumptions = {});

  /// Value of a variable in the model of the last kSat answer.
  [[nodiscard]] bool model_value(int var) const { return model_[var] == 1; }

  /// Conflict budget per solve() call; 0 disables the limit.
  void set_conflict_limit(std::int64_t limit) { conflict_limit_ = limit; }

  /// Raises a variable's VSIDS activity by `weight` bump increments.
  void bump(int var, double weight = 1.0);

  // Cumulative statistics (exposed in SecResult::stats).
  std::int64_t num_solve_calls = 0;
  std::int64_t num_conflicts = 0;
  std::int64_t num_decisions = 0;
  std::int64_t num_propagations = 0;

 private:
  struct Watcher {
    int clause = 0;   // arena offset of the clause's size word
    int blocker = 0;  // another literal of the clause; true => satisfied
  };

  [[nodiscard]] int value_of(int lit) const {  // +1 true, 0 false, -1 unassigned
    const signed char a = assigns_[lit >> 1];
    return a < 0 ? -1 : (a ^ (lit & 1));
  }
  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim_.size());
  }
  void new_decision_level() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }
  void enqueue(int lit, int reason);
  int attach(std::span<const int> lits);  // stores and watches a clause
  int propagate();  // returns the conflicting clause or -1
  void analyze(int confl, std::vector<int>& learnt, int& bt_level);
  void backtrack(int level);
  int pick_branch_var();
  void decay() { var_inc_ /= 0.95; }
  void heap_insert(int var);
  void heap_percolate_up(int pos);
  void heap_percolate_down(int pos);
  int heap_pop();

  bool ok_ = true;  // false once the formula is unsat at level 0
  std::vector<int> arena_;  // clauses of two or more literals, back to back
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<signed char> assigns_;           // per var: -1 / 0 / 1
  std::vector<int> level_;                     // per var
  std::vector<int> reason_;                    // per var: clause or -1
  std::vector<int> trail_;
  std::vector<int> trail_lim_;
  int qhead_ = 0;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<int> heap_;          // max-heap of vars by activity
  std::vector<int> heap_index_;    // per var: position in heap_ or -1
  std::vector<signed char> polarity_;  // saved phase per var
  std::vector<signed char> seen_;      // scratch for analyze()
  std::vector<signed char> model_;
  std::int64_t conflict_limit_ = 0;
};

}  // namespace tp::equiv
