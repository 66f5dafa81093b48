// micro_place — placement cost on the paper grid.
//
// Converts the 17 paper designs other than AES under every backend at paper
// defaults (one run_matrix wave, not timed), then places each converted
// netlist serially `--repeat` times at the default placer options. Per unit
// it records the best place time, microseconds per cell, the FM work
// counters Placement carries (passes, moves, passes cut short by the
// dead-edge bound) and a hash of every cell position; BENCH_place.json
// gets the rows and the grid totals.
//
//   $ ./bench/micro_place [--cycles N] [--repeat N] [--threads N] [--out FILE]
//
// Exit status: 0 when every unit's placements hash the same on each
// repetition, 1 on a divergence or an unwritable output, 2 on usage errors.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/circuits/benchmark.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"
#include "src/place/placer.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"
#include "src/util/log.hpp"

using namespace tp;

namespace {

std::uint64_t placement_hash(const Placement& placement) {
  std::uint64_t hash = util::kFnvOffset;
  for (const auto& [x, y] : placement.pos) {
    hash = util::hash_combine(hash, std::bit_cast<std::uint64_t>(x));
    hash = util::hash_combine(hash, std::bit_cast<std::uint64_t>(y));
  }
  return hash;
}

struct Row {
  std::string unit;  // design/backend token
  std::size_t cells = 0;
  double place_s = 0;  // best of the repetitions
  FmStats fm;
  std::uint64_t hash = 0;
  bool stable = true;  // every repetition hashed the same
};

double us_per_cell(double seconds, std::size_t cells) {
  return cells > 0 ? 1e6 * seconds / static_cast<double>(cells) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cycles = 96, repeat = 2, threads = 0;
  std::string out_file = "BENCH_place.json";

  util::ArgParser parser(
      "micro_place",
      "time place() on every converted paper design but AES under every "
      "backend and record per-unit cost, FM counters and placement hashes "
      "in BENCH_place.json");
  parser.add_value("--cycles", &cycles,
                   "simulated cycles of the converting flows (default 96)");
  parser.add_value("--repeat", &repeat,
                   "placements per unit, >= 2; the best time counts "
                   "(default 2)");
  parser.add_value("--threads", &threads,
                   "worker threads for the untimed conversion wave "
                   "(default TP_THREADS or hardware)");
  parser.add_value("--out", &out_file,
                   "JSON output path (default BENCH_place.json)", "FILE");
  parser.parse_or_exit(argc, argv);
  if (repeat < 2) {
    std::fprintf(stderr, "--repeat must be >= 2\n%s", parser.usage().c_str());
    return 2;
  }

  flow::RunPlan plan;
  for (const std::string& name : circuits::benchmark_names()) {
    if (name != "AES") plan.benchmarks.push_back(name);
  }
  plan.styles.clear();
  for (int s = 0; s < flow::kNumDesignStyles; ++s) {
    plan.styles.push_back(static_cast<flow::DesignStyle>(s));
  }
  plan.cycles = cycles;
  std::vector<flow::MatrixResult> results;
  {
    util::Executor executor(threads);
    results = flow::run_matrix(plan, executor);
  }

  std::printf("micro_place: %zu units, best of %zu placements\n",
              results.size(), repeat);
  std::printf("%-12s %7s %9s %8s %6s %9s %6s  %s\n", "unit", "cells",
              "place s", "us/cell", "passes", "moves", "early", "hash");
  std::vector<Row> rows;
  int divergent = 0;
  for (const flow::MatrixResult& r : results) {
    const flow::ConversionBackend& backend = flow::backend_for(r.task.style);
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    CellLibrary library = CellLibrary::nominal_28nm();
    backend.adjust_library(library);
    Row row;
    row.unit = r.task.benchmark + "/" + std::string(backend.token());
    row.cells = r.result.netlist.num_cells();
    for (std::size_t rep = 0; rep < repeat; ++rep) {
      Stopwatch watch;
      const Placement placement = place(r.result.netlist, library);
      const double seconds = watch.seconds();
      const std::uint64_t hash = placement_hash(placement);
      if (rep == 0) {
        row.place_s = seconds;
        row.fm = placement.fm;
        row.hash = hash;
      } else {
        row.place_s = std::min(row.place_s, seconds);
        row.stable = row.stable && hash == row.hash;
      }
    }
    if (!row.stable) {
      ++divergent;
      std::fprintf(stderr, "DIVERGENCE: %s placed differently on a repeat\n",
                   row.unit.c_str());
    }
    std::printf("%-12s %7zu %9.4f %8.2f %6lld %9lld %6lld  %016llx%s\n",
                row.unit.c_str(), row.cells, row.place_s,
                us_per_cell(row.place_s, row.cells),
                static_cast<long long>(row.fm.passes),
                static_cast<long long>(row.fm.moves),
                static_cast<long long>(row.fm.early_exits),
                static_cast<unsigned long long>(row.hash),
                row.stable ? "" : "  DIVERGED");
    std::fflush(stdout);
    rows.push_back(std::move(row));
  }

  double total_s = 0;
  std::size_t total_cells = 0;
  FmStats total_fm;
  for (const Row& row : rows) {
    total_s += row.place_s;
    total_cells += row.cells;
    total_fm += row.fm;
  }
  std::printf("total: %.3f s over %zu cells (%.2f us/cell), %lld passes, "
              "%lld moves, %lld early exits\n",
              total_s, total_cells, us_per_cell(total_s, total_cells),
              static_cast<long long>(total_fm.passes),
              static_cast<long long>(total_fm.moves),
              static_cast<long long>(total_fm.early_exits));

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("micro_place");
  w.key("cycles").value(static_cast<std::uint64_t>(cycles));
  w.key("repeat").value(static_cast<std::uint64_t>(repeat));
  w.key("units").begin_array();
  for (const Row& row : rows) {
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(row.hash));
    w.begin_object();
    w.key("unit").value(row.unit);
    w.key("cells").value(static_cast<std::uint64_t>(row.cells));
    w.key("place_s").value(row.place_s);
    w.key("us_per_cell").value(us_per_cell(row.place_s, row.cells));
    w.key("fm_passes").value(row.fm.passes);
    w.key("fm_moves").value(row.fm.moves);
    w.key("fm_early_exits").value(row.fm.early_exits);
    w.key("hash").value(hash);
    w.key("stable").value(row.stable);
    w.end_object();
  }
  w.end_array();
  w.key("place_s").value(total_s);
  w.key("cells").value(static_cast<std::uint64_t>(total_cells));
  w.key("us_per_cell").value(us_per_cell(total_s, total_cells));
  w.key("fm_passes").value(total_fm.passes);
  w.key("fm_moves").value(total_fm.moves);
  w.key("fm_early_exits").value(total_fm.early_exits);
  w.key("divergent").value(divergent);
  w.end_object();
  std::ofstream out(out_file);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 1;
  }
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_file.c_str());
  return divergent == 0 ? 0 : 1;
}
