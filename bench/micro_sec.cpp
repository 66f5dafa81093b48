// micro_sec — SEC proof cost on the designs the default test suite proves.
//
// Proves every paper design of at most 3600 cells (the nine tier-1 designs
// plus MD5, the same bound tests/sec_test.cpp runs by default) against its
// FF golden five times, as SecBenchmarkTest does: after clock-gating
// inference, master-slave, full 3-phase, pulsed-latch and DET-FF. Per proof
// it records the seconds, the status and the SAT work summed over every
// solver (calls, conflicts, decisions, propagations); BENCH_sec.json gets
// the rows and the totals.
//
//   $ ./bench/micro_sec [--out FILE]
//
// Exit status: 0 when every proof is proven, 1 when one is not or the
// output is unwritable, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/circuits/benchmark.hpp"
#include "src/equiv/sec.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/det_ff.hpp"
#include "src/transform/p2_gating.hpp"
#include "src/transform/pulsed_latch.hpp"
#include "src/util/argparse.hpp"
#include "src/util/json.hpp"
#include "src/util/log.hpp"

using namespace tp;

namespace {

constexpr std::size_t kMaxCells = 3600;

struct Row {
  std::string proof;  // design/transform
  double seconds = 0;
  equiv::SecResult result;
};

/// Clock-gating inference, phase assignment + latch insertion, p2
/// common-enable gating and M2, as SecBenchmarkTest's 3-phase proof.
Netlist three_phase_full(const Netlist& ff_netlist) {
  Netlist nl = ff_netlist;
  infer_clock_gating(nl);
  ThreePhaseResult p3 = to_three_phase(nl);
  gate_p2_latches(p3.netlist);
  apply_m2(p3.netlist);
  return std::move(p3.netlist);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_sec.json";
  util::ArgParser parser(
      "micro_sec",
      "prove every paper design of at most 3600 cells against its FF golden "
      "under five transforms and record per-proof time, status and SAT work "
      "in BENCH_sec.json");
  parser.add_value("--out", &out_file,
                   "JSON output path (default BENCH_sec.json)", "FILE");
  parser.parse_or_exit(argc, argv);

  std::printf("%-12s %-9s %8s %9s %10s %11s %13s\n", "proof", "status",
              "seconds", "calls", "conflicts", "decisions", "propagations");
  std::vector<Row> rows;
  for (const std::string& name : circuits::benchmark_names()) {
    const circuits::Benchmark bm = circuits::make_benchmark(name);
    if (bm.netlist.num_cells() > kMaxCells) continue;
    Netlist ff = bm.netlist;
    infer_clock_gating(ff);
    const std::pair<const char*, Netlist> revised[] = {
        {"cg", ff},
        {"ms", to_master_slave(ff)},
        {"3p", three_phase_full(bm.netlist)},
        {"pl", to_pulsed_latch(ff).netlist},
        {"det", to_det_ff(ff).netlist},
    };
    for (const auto& [proof, netlist] : revised) {
      Row row;
      row.proof = name + "/" + proof;
      Stopwatch watch;
      row.result = equiv::check_sequential_equivalence(bm.netlist, netlist);
      row.seconds = watch.seconds();
      const equiv::SecStats& s = row.result.stats;
      std::printf("%-12s %-9s %8.3f %9lld %10lld %11lld %13lld\n",
                  row.proof.c_str(),
                  std::string(equiv::status_name(row.result.status)).c_str(),
                  row.seconds, static_cast<long long>(s.sat_calls),
                  static_cast<long long>(s.sat_conflicts),
                  static_cast<long long>(s.sat_decisions),
                  static_cast<long long>(s.sat_propagations));
      std::fflush(stdout);
      rows.push_back(std::move(row));
    }
  }

  double total_s = 0;
  equiv::SecStats total;
  int not_proven = 0;
  for (const Row& row : rows) {
    total_s += row.seconds;
    total.sat_calls += row.result.stats.sat_calls;
    total.sat_conflicts += row.result.stats.sat_conflicts;
    total.sat_decisions += row.result.stats.sat_decisions;
    total.sat_propagations += row.result.stats.sat_propagations;
    if (!row.result) {
      ++not_proven;
      std::fprintf(stderr, "NOT PROVEN: %s %s: %s\n", row.proof.c_str(),
                   std::string(equiv::status_name(row.result.status)).c_str(),
                   row.result.detail.c_str());
    }
  }
  std::printf("total: %zu proofs in %.3f s, %lld SAT calls, %lld conflicts, "
              "%lld decisions, %lld propagations; %d not proven\n",
              rows.size(), total_s, static_cast<long long>(total.sat_calls),
              static_cast<long long>(total.sat_conflicts),
              static_cast<long long>(total.sat_decisions),
              static_cast<long long>(total.sat_propagations), not_proven);

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("micro_sec");
  w.key("max_cells").value(static_cast<std::uint64_t>(kMaxCells));
  w.key("proofs").begin_array();
  for (const Row& row : rows) {
    const equiv::SecStats& s = row.result.stats;
    w.begin_object();
    w.key("proof").value(row.proof);
    w.key("status").value(equiv::status_name(row.result.status));
    w.key("seconds").value(row.seconds);
    w.key("sat_calls").value(s.sat_calls);
    w.key("sat_conflicts").value(s.sat_conflicts);
    w.key("sat_decisions").value(s.sat_decisions);
    w.key("sat_propagations").value(s.sat_propagations);
    w.end_object();
  }
  w.end_array();
  w.key("seconds").value(total_s);
  w.key("sat_calls").value(total.sat_calls);
  w.key("sat_conflicts").value(total.sat_conflicts);
  w.key("sat_decisions").value(total.sat_decisions);
  w.key("sat_propagations").value(total.sat_propagations);
  w.key("not_proven").value(not_proven);
  w.end_object();
  std::ofstream out(out_file);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 1;
  }
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_file.c_str());
  return not_proven == 0 ? 0 : 1;
}
