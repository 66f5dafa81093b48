// Intra-cycle event schedule: the one definition shared by the scalar
// Simulator, the bit-parallel WideSimulator and the SEC cycle builder
// (src/equiv/sec.cpp). Keeping it in one place is what makes the engines'
// event schedules and output snapshots identical by construction — a
// precondition of the wide engine's bit-identity contract and of trusting
// SEC proofs and counterexample replays (docs/simulation.md,
// docs/equivalence.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace tp {

/// Distinct phase-edge times inside one cycle, ascending, always including
/// 0 (the cycle-boundary event at which primary inputs change).
inline std::vector<std::int64_t> edge_times(const ClockSpec& clocks) {
  std::vector<std::int64_t> times{0};
  for (const PhaseWaveform& w : clocks.phases) {
    times.push_back(w.rise_ps % clocks.period_ps);
    times.push_back(w.fall_ps % clocks.period_ps);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

/// Waveform level of a phase at time `t` within the cycle (rise <= t <
/// fall, with wrap-around for waveforms that straddle the boundary).
inline bool phase_level(const PhaseWaveform& w, std::int64_t period,
                        std::int64_t t) {
  const std::int64_t rise = w.rise_ps % period;
  const std::int64_t fall = w.fall_ps % period;
  if (rise <= fall) return rise <= t && t < fall;
  return t >= rise || t < fall;  // wrapping waveform
}

/// Index into edge_times() of the event after which primary outputs are
/// snapshotted. Single-phase plans (FF, master-slave, pulsed latch, DET)
/// update registers at the t = 0 event, so every register output carries
/// the cycle-n state once it settles. Multi-phase plans (3-phase p1,
/// two-phase slave) open the cycle's first capturing latch at the second
/// event, so the snapshot waits for it. Callers clamp to the last event.
inline int snapshot_event(const ClockSpec& clocks) {
  return clocks.phases.size() >= 2 ? 1 : 0;
}

}  // namespace tp
