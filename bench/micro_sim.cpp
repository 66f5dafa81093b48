// micro_sim — scalar vs bit-parallel simulator throughput.
//
// For each benchmark x design style, simulates the same lane count twice:
// once lane-by-lane on the scalar Simulator, once in a single bit-parallel
// WideSimulator pass (src/sim/wide_sim.hpp). Verifies the two output
// streams are bit-identical (the wide engine's contract doubles as the
// benchmark's correctness gate), prints cycles/second and the wide-over-
// scalar speedup, and writes a BENCH_sim.json record that CI uploads next
// to BENCH_matrix.json to track the perf trajectory over time.
//
//   $ ./bench/micro_sim [--lanes N] [--cycles N] [--repeat N] [--out FILE]
//   $ ./bench/micro_sim --circuit Plasma --backend 3p
//
// Exit status: 0 when every wide stream matches its scalar reference,
// 1 on divergence, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/circuits/workload.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"  // flow::lane_seed
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/util/argparse.hpp"

using namespace tp;

namespace {

struct StyleCase {
  std::string label;
  Netlist netlist{"case"};
  int snapshot_event = 0;
};

/// Builds one simulation target per requested backend, through the same
/// conversion pipeline run_flow() dispatches to — any registered token
/// works, not just the original three. FlowOptions::fast() keeps the
/// conversion cheap (no retiming, DDCG, or hold repair; the benchmark
/// measures the simulator, not the flow) while the 3-P variant still
/// carries ICG/M1/M2 cells, so the clock-network word paths are covered.
StyleCase make_case(const circuits::Benchmark& bench,
                    const std::string& token) {
  const flow::ConversionBackend* backend = flow::find_backend(token);
  if (backend == nullptr) {
    throw Error("unknown backend '" + token + "' (valid backends: " +
                flow::backend_token_list() + ")");
  }
  StyleCase result;
  result.label = token;
  result.netlist = bench.netlist;
  infer_clock_gating(result.netlist);
  const flow::FlowOptions options = flow::FlowOptions::fast();
  const CellLibrary& library = CellLibrary::nominal_28nm();
  flow::FlowResult scratch;
  flow::FlowContext ctx{
      .netlist = result.netlist,
      .options = options,
      .library = library,
      .result = scratch,
      .checkpoint = [](std::string_view) {},
      .activity = [] { return ActivityStats{}; },  // fast(): DDCG is off
  };
  backend->convert(ctx);
  // Multi-phase plans snapshot at the second clock event, single-phase
  // plans at reset; mirrors run_flow()'s simulation setup.
  result.snapshot_event =
      result.netlist.clocks().phases.size() >= 2 ? 1 : 0;
  return result;
}

struct Row {
  std::string circuit;
  std::string style;
  double scalar_cps = 0;
  double wide_cps = 0;
  double speedup = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> circuits_arg, backends_arg;
  std::size_t lanes = 64, cycles = 32, repeat = 3;
  std::string out_file = "BENCH_sim.json";

  util::ArgParser parser(
      "micro_sim",
      "benchmark the scalar simulator against the 64-lane bit-parallel "
      "engine on the same stimuli and record cycles/sec in BENCH_sim.json");
  parser.add_list("--circuit", &circuits_arg,
                  "benchmark to include (repeatable; default s13207 s35932 "
                  "SHA256 Plasma)",
                  "NAME");
  parser.add_list("--backend", &backends_arg,
                  "conversion backend to include, any registered token "
                  "(repeatable; default ff 3p)",
                  "TOKEN");
  parser.add_value("--lanes", &lanes,
                   "stimulus lanes per measurement, 1-64 (default 64)");
  parser.add_value("--cycles", &cycles, "cycles per lane (default 32)");
  parser.add_value("--repeat", &repeat,
                   "timed repetitions; the best run counts (default 3)");
  parser.add_value("--out", &out_file,
                   "JSON output path (default BENCH_sim.json)", "FILE");
  parser.parse_or_exit(argc, argv);

  if (lanes < 1 || lanes > kMaxSimLanes || repeat < 1) {
    std::fprintf(stderr, "--lanes must be in [1, 64], --repeat >= 1\n%s",
                 parser.usage().c_str());
    return 2;
  }
  if (circuits_arg.empty()) {
    circuits_arg = {"s13207", "s35932", "SHA256", "Plasma"};
  }
  if (backends_arg.empty()) backends_arg = {"ff", "3p"};

  const std::uint64_t total_cycles =
      static_cast<std::uint64_t>(lanes) * cycles;
  std::printf("micro_sim: %zu lane(s) x %zu cycles, best of %zu\n", lanes,
              cycles, repeat);
  std::printf("%-8s %-5s | %12s %12s | %7s | %s\n", "circuit", "style",
              "scalar c/s", "wide c/s", "speedup", "identical");

  std::vector<Row> rows;
  int divergent = 0;
  try {
    for (const std::string& name : circuits_arg) {
      const circuits::Benchmark bench = circuits::make_benchmark(name);
      std::vector<Stimulus> stimuli;
      stimuli.reserve(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        stimuli.push_back(circuits::make_stimulus(
            bench, circuits::Workload::kPaperDefault, cycles,
            flow::lane_seed(7, l)));
      }
      for (const std::string& style : backends_arg) {
        const StyleCase target = make_case(bench, style);
        SimOptions options;
        options.snapshot_event = target.snapshot_event;

        // Scalar reference: one run per lane, streams concatenated
        // lane-major (exactly what the flow's scalar fallback does).
        Simulator scalar(target.netlist, options);
        OutputStream scalar_stream;
        double scalar_s = 0;
        for (std::size_t r = 0; r < repeat; ++r) {
          scalar_stream.clear();
          Stopwatch watch;
          for (const Stimulus& lane : stimuli) {
            OutputStream s = run_stream(scalar, lane, 0);
            scalar_stream.insert(scalar_stream.end(),
                                 std::make_move_iterator(s.begin()),
                                 std::make_move_iterator(s.end()));
          }
          const double seconds = watch.seconds();
          if (r == 0 || seconds < scalar_s) scalar_s = seconds;
        }

        // Wide engine: every lane in one pass.
        WideSimulator wide(target.netlist, lanes, options);
        const WideStimulus packed = pack_stimulus(stimuli);
        OutputStream wide_stream;
        double wide_s = 0;
        for (std::size_t r = 0; r < repeat; ++r) {
          Stopwatch watch;
          wide_stream = run_wide_stream(wide, packed, 0);
          const double seconds = watch.seconds();
          if (r == 0 || seconds < wide_s) wide_s = seconds;
        }

        Row row;
        row.circuit = name;
        row.style = target.label;
        row.scalar_cps = scalar_s > 0 ? total_cycles / scalar_s : 0;
        row.wide_cps = wide_s > 0 ? total_cycles / wide_s : 0;
        row.speedup = wide_s > 0 ? scalar_s / wide_s : 0;
        row.identical = streams_equal(scalar_stream, wide_stream);
        if (!row.identical) {
          ++divergent;
          std::fprintf(stderr,
                       "DIVERGENCE: %s/%s wide stream differs from scalar\n",
                       name.c_str(), style.c_str());
        }
        std::printf("%-8s %-5s | %12.0f %12.0f | %6.2fx | %s\n",
                    name.c_str(), style.c_str(), row.scalar_cps,
                    row.wide_cps, row.speedup, row.identical ? "yes" : "NO");
        std::fflush(stdout);
        rows.push_back(std::move(row));
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::ofstream out(out_file);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 1;
  }
  out << "{\"bench\":\"micro_sim\",\"lanes\":" << lanes
      << ",\"cycles_per_lane\":" << cycles << ",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"circuit\":\"%s\",\"style\":\"%s\","
                  "\"scalar_cycles_per_s\":%.0f,\"wide_cycles_per_s\":%.0f,"
                  "\"speedup\":%.3f,\"identical\":%s}",
                  i == 0 ? "" : ",", rows[i].circuit.c_str(),
                  rows[i].style.c_str(), rows[i].scalar_cps,
                  rows[i].wide_cps, rows[i].speedup,
                  rows[i].identical ? "true" : "false");
    out << buffer;
  }
  out << "]}\n";
  std::printf("wrote %s\n", out_file.c_str());

  return divergent == 0 ? 0 : 1;
}
