// Micro-benchmarks (google-benchmark): phase-assignment solver throughput
// on random register graphs of increasing size.
#include <benchmark/benchmark.h>

#include "src/phase/assignment.hpp"
#include "src/util/rng.hpp"

namespace tp {
namespace {

RegisterGraph random_graph(int n, double edge_p, std::uint64_t seed) {
  Rng rng(seed);
  RegisterGraph g;
  for (int i = 0; i < n; ++i) {
    g.regs.push_back(CellId{static_cast<std::uint32_t>(i)});
    g.node_of.emplace(static_cast<std::uint32_t>(i), i);
  }
  g.fanout.resize(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (rng.chance(edge_p)) {
        g.fanout[static_cast<std::size_t>(u)].push_back(v);
      }
    }
  }
  return g;
}

void BM_SpecializedSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const RegisterGraph g = random_graph(n, 4.0 / n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign_phases_specialized(g));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SpecializedSolver)->Range(32, 4096)->Complexity();

void BM_GreedySolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const RegisterGraph g = random_graph(n, 4.0 / n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign_phases_greedy(g));
  }
}
BENCHMARK(BM_GreedySolver)->Range(32, 4096);

}  // namespace
}  // namespace tp

BENCHMARK_MAIN();
