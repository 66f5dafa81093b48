// Benchmark registry: synthetic equivalents of the paper's evaluation
// circuits (Sec. V).
//
// The original RTL (ISCAS89, MIT-LL CEP, Plasma/Rocket/Cortex-M0) is not
// redistributable or requires commercial synthesis, so each benchmark is a
// deterministic structural generator tuned to the paper's reported register
// count and to the structural profile that drives the conversion results:
// the fraction of FFs with combinational feedback (control), in pipeline
// chains (datapath), and in independent/enable-gated banks (storage).
// Clock frequencies follow the paper: ISCAS at 1 GHz, CEP and Plasma at
// 500 MHz, RISC-V and ARM-M0 at 333.3 MHz.
#pragma once

#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace tp::circuits {

struct Benchmark {
  std::string name;
  std::string suite;  // "ISCAS", "CEP", "CPU"
  Netlist netlist;    // FF-based design, kDffEn for enables (pre-synthesis)
  std::int64_t period_ps = 0;
  std::string paper_workload;  // stimulus the paper used for this circuit
};

/// All 18 benchmark names in Table I/II order.
const std::vector<std::string>& benchmark_names();

/// Builds a benchmark by name; throws tp::Error for unknown names. Each
/// call builds a fresh, mutable copy.
Benchmark make_benchmark(const std::string& name);

/// A built-in benchmark as the process-wide store holds it, with the
/// netlist_hash() of its netlist (the serve cache's content address).
struct StoredBenchmark {
  Benchmark benchmark;
  std::uint64_t content_hash = 0;
};

/// The process-wide benchmark store: one slot per built-in name, filled by
/// make_benchmark() on the first call for that name (once, however many
/// threads race on it) and never evicted, so every later call returns the
/// same read-only object. Throws tp::Error for unknown names on every call
/// and stores nothing for them. Holding all 18 designs costs about 17 MB
/// of RSS, AES about 6 MB of it (docs/parallelism.md).
const StoredBenchmark& stored_benchmark(const std::string& name);

// Per-suite generators (exposed for tests).
Netlist make_iscas(const std::string& name, std::int64_t period_ps);
Netlist make_cep(const std::string& name, std::int64_t period_ps);
Netlist make_cpu(const std::string& name, std::int64_t period_ps);

/// Macro-scale pipeline grid for the runtime benchmarks (bench/macro_flow):
/// `lanes` parallel register pipelines of `width` bits, deep enough to hold
/// ~`flip_flops` registers, mixing bounded-depth logic stages, a sparse
/// direct-shift lane (hold pressure for repair_hold), cross-lane XOR
/// coupling, and a
/// per-lane feedback register. With `three_phase` the banks are kLatchH
/// latches cycling p1/p2/p3 with stage depth (a ready-made 3-phase design,
/// no conversion needed); otherwise plain kDff on a single-phase clock.
/// Deterministic for a given spec.
struct MacroSpec {
  int flip_flops = 1000;
  int lanes = 8;
  int width = 16;
  int gates_per_stage = 24;
  bool three_phase = false;
  std::int64_t period_ps = 2000;
  std::uint64_t seed = 0xAC0;
};

Netlist make_macro(const MacroSpec& spec);

}  // namespace tp::circuits
