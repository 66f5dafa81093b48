#include "src/phase/assignment.hpp"

#include <numeric>

#include "src/util/strcat.hpp"

namespace tp {

int PhaseAssignment::num_inserted() const {
  return std::accumulate(g.begin(), g.end(), 0) +
         std::accumulate(pi_g.begin(), pi_g.end(), 0);
}

int PhaseAssignment::total_latches(const RegisterGraph& graph) const {
  return static_cast<int>(graph.regs.size()) + num_inserted();
}

void validate_assignment(const RegisterGraph& graph,
                         const PhaseAssignment& assignment) {
  const std::size_t n = graph.regs.size();
  require(assignment.k.size() == n && assignment.g.size() == n,
          "validate_assignment: size mismatch");
  require(assignment.pi_g.size() == graph.data_pis.size(),
          "validate_assignment: PI size mismatch");
  for (std::size_t u = 0; u < n; ++u) {
    if (!assignment.k[u]) {
      require(assignment.g[u] == 1,
              cat("validate_assignment: p3 node ", u,
                  " must be back-to-back"));
    }
    if (assignment.k[u] && !assignment.g[u]) {
      for (const int v : graph.fanout[u]) {
        require(!assignment.k[v] || assignment.g[u],
                cat("validate_assignment: consecutive p1 latches ", u,
                    " -> ", v));
      }
    }
  }
  for (std::size_t p = 0; p < graph.data_pis.size(); ++p) {
    if (assignment.pi_g[p]) continue;
    for (const int v : graph.pi_fanout[p]) {
      require(!assignment.k[v],
              cat("validate_assignment: PI ", p,
                  " feeds p1 latch ", v, " without an inserted p2 latch"));
    }
  }
}

PhaseAssignment assignment_from_k(const RegisterGraph& graph,
                                  std::vector<std::uint8_t> k) {
  PhaseAssignment a;
  const std::size_t n = graph.regs.size();
  require(k.size() == n, "assignment_from_k: size mismatch");
  a.k = std::move(k);
  a.g.assign(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    if (!a.k[u]) {
      a.g[u] = 1;
      continue;
    }
    for (const int v : graph.fanout[u]) {
      if (a.k[v]) {
        a.g[u] = 1;
        break;
      }
    }
  }
  a.pi_g.assign(graph.data_pis.size(), 0);
  for (std::size_t p = 0; p < graph.data_pis.size(); ++p) {
    for (const int v : graph.pi_fanout[p]) {
      if (a.k[v]) {
        a.pi_g[p] = 1;
        break;
      }
    }
  }
  return a;
}

PhaseAssignment assign_phases(const RegisterGraph& graph,
                              const AssignOptions& options) {
  switch (options.method) {
    case AssignMethod::kSpecialized:
      return assign_phases_specialized(graph);
    case AssignMethod::kGreedy:
      return assign_phases_greedy(graph);
  }
  throw Error("assign_phases: unknown method");
}

}  // namespace tp
