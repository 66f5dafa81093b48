// Traced replay of a flow: the benchmark's per-layer numbers.
//
// replay_flow() performs the same public calls run_flow() makes, in the
// same order, with a stopwatch around each one, so each layer's busy time
// is measured from outside the library. The benchmark checks that a replayed
// unit reproduces run_flow()'s registers, area, power and output stream
// bit for bit, and that the layer times cover the replay's wall time;
// otherwise the per-layer numbers would describe a different program.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "src/flow/flow.hpp"
#include "src/util/log.hpp"

namespace perfbench {

/// Busy seconds per layer plus per-layer counters.
struct Layers {
  std::map<std::string, double, std::less<>> busy;
  std::map<std::string, double, std::less<>> counts;

  void add(std::string_view layer, double seconds);
  void count(std::string_view name, double amount);
  [[nodiscard]] double busy_of(std::string_view layer) const;
  [[nodiscard]] double count_of(std::string_view name) const;
  /// Sum of every layer's busy time: the part of a replay the layers cover.
  [[nodiscard]] double covered_s() const;

  /// Runs `fn` and adds its wall time to `layer`.
  template <class F>
  decltype(auto) timed(std::string_view layer, F&& fn) {
    struct Stamp {
      Layers& layers;
      std::string_view layer;
      tp::Stopwatch watch;
      ~Stamp() { layers.add(layer, watch.seconds()); }
    } stamp{*this, layer, {}};
    return fn();
  }
};

/// Replays run_flow(benchmark, style, stimulus, options) for one stimulus
/// lane and no executor. Layers: "synthesis", "convert", "retime",
/// "gating" (p2/M2/DDCG including DDCG's activity simulation), "hold",
/// "sta", "place", "cts", "sim", "power", and, for checkpointed flows,
/// "check" and "analysis". Counters: "place.cells", "sim.toggles".
tp::flow::FlowResult replay_flow(const tp::circuits::Benchmark& benchmark,
                                 tp::flow::DesignStyle style,
                                 const tp::Stimulus& stimulus,
                                 const tp::flow::FlowOptions& options,
                                 Layers& layers);

/// The input FF design simulated under `stimulus` with run_flow()'s
/// warm-up: the stream every converted design must reproduce.
tp::OutputStream golden_stream(const tp::Netlist& netlist,
                               const tp::Stimulus& stimulus,
                               std::size_t warmup_cycles);

}  // namespace perfbench
