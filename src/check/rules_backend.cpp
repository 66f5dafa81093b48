// Backend-discipline rules: the two-phase non-overlap guard gap, the
// pulsed-latch pulse-width bound, and the DET divider-clocking structure.
// Each rule gates itself on the netlist features its backend introduces,
// so the full registry runs cleanly on every conversion style.
#include "src/check/rules.hpp"
#include "src/util/strcat.hpp"

namespace tp::check {
namespace {

/// Driver cell of `net` traced back through clock buffers and inverters;
/// invalid CellId when the net is undriven or the walk loops (it is bounded
/// by the net count, as trace_clock() is).
CellId traced_driver(const Netlist& netlist, NetId net) {
  for (std::size_t step = 0; step <= netlist.num_nets(); ++step) {
    const CellId driver = netlist.net(net).driver;
    if (!driver.valid()) return driver;
    const Cell& cell = netlist.cell(driver);
    if (cell.kind == CellKind::kClkBuf || cell.kind == CellKind::kBuf ||
        cell.kind == CellKind::kClkInv || cell.kind == CellKind::kInv) {
      net = cell.ins[0];
      continue;
    }
    return driver;
  }
  return CellId{};
}

}  // namespace

void rule_two_phase_nonoverlap(RuleContext& ctx) {
  const ClockSpec& clocks = ctx.netlist().clocks();
  const PhaseWaveform* clk = clocks.find(Phase::kClk);
  const PhaseWaveform* clkbar = clocks.find(Phase::kClkBar);
  // Only a genuine two-phase plan carries a clkbar waveform; the
  // master-slave baseline runs both latches off the single clk root.
  if (clk == nullptr || clkbar == nullptr) return;
  if (clocks.period_ps <= 0) return;  // schedule-sanity reports that
  // Guard gap on both sides: clk falls before clkbar rises, and clkbar
  // falls before clk rises again (one period later). Overlap is already
  // schedule-sanity's finding; a zero gap (abutting edges) is legal there
  // but breaks the non-overlapping discipline, which is exactly what this
  // rule exists to catch.
  const std::int64_t gap_a = clkbar->rise_ps - clk->fall_ps;
  const std::int64_t gap_b = clk->rise_ps + clocks.period_ps -
                             clkbar->fall_ps;
  const auto report = [&](std::string_view where, std::int64_t gap) {
    ctx.emit(RuleId::kTwoPhaseNonOverlap,
             cat("clk high [", clk->rise_ps, ",", clk->fall_ps,
                 ") and clkbar high [", clkbar->rise_ps, ",",
                 clkbar->fall_ps, ") ps leave a ", gap, " ps guard gap ",
                 where),
             {}, {},
             "delay the phases' rise edges so a positive non-overlap gap "
             "separates them on both sides");
  };
  if (gap_a <= 0) report("between clk fall and clkbar rise", gap_a);
  if (gap_b <= 0) report("between clkbar fall and the next clk rise", gap_b);
}

void rule_pulse_width(RuleContext& ctx) {
  const Netlist& netlist = ctx.netlist();
  const ClockSpec& clocks = netlist.clocks();
  if (clocks.period_ps <= 0) return;
  // Phases that actually clock a pulsed latch (traced through the clock
  // network, so gated pulses count too).
  bool pulsed[6] = {};
  bool any = false;
  for (const CellId id : netlist.registers()) {
    const Cell& cell = netlist.cell(id);
    if (cell.kind != CellKind::kLatchP) continue;
    const ClockTrace& trace =
        ctx.clock_trace(cell.ins[clock_pin(cell.kind)]);
    if (trace.kind != ClockTraceKind::kPhaseRoot || trace.inverted) {
      continue;  // clock-reachability reports broken traces
    }
    pulsed[static_cast<int>(trace.phase)] = true;
    any = true;
  }
  if (!any) return;
  for (const PhaseWaveform& wave : clocks.phases) {
    if (!pulsed[static_cast<int>(wave.phase)]) continue;
    const std::int64_t width = wave.fall_ps - wave.rise_ps;
    if (width <= 0) continue;  // degenerate: schedule-sanity's finding
    if (2 * width > clocks.period_ps) {
      ctx.emit(RuleId::kPulseWidth,
               cat("pulse clock ", phase_name(wave.phase), " is high for ",
                   width, " ps of a ", clocks.period_ps,
                   " ps cycle — wider than half the period"),
               {}, {},
               "narrow the pulse: a pulsed latch approximates an "
               "edge-triggered register only while the pulse is short "
               "relative to the cycle");
    }
  }
}

void rule_det_clocking(RuleContext& ctx) {
  const Netlist& netlist = ctx.netlist();
  bool any_det = false;
  for (const CellId id : netlist.live_cells()) {
    if (netlist.cell(id).kind == CellKind::kDffDet ||
        netlist.cell(id).kind == CellKind::kClkDiv2) {
      any_det = true;
      break;
    }
  }
  if (!any_det) return;

  for (const CellId id : netlist.live_cells()) {
    const Cell& cell = netlist.cell(id);
    if (cell.kind == CellKind::kDffDet) {
      // A DET FF on an undivided clock sees two toggles per cycle and
      // samples twice — silently halving its effective cycle time.
      const CellId src = traced_driver(netlist, cell.ins[1]);
      if (!src.valid() || netlist.cell(src).kind != CellKind::kClkDiv2) {
        ctx.emit(RuleId::kDetClocking,
                 cat("dual-edge FF '", cell.name,
                     "' is clocked by '", netlist.net(cell.ins[1]).name,
                     "', which does not come from a divide-by-two"),
                 {cell.name}, {netlist.net(cell.ins[1]).name},
                 "route the register's clock pin through the kClkDiv2 leaf "
                 "divider of its gated clock net");
      }
    } else if (is_register(cell.kind)) {
      // Conversely a single-edge register behind a divider runs at half
      // rate: it only sees a rising edge every other cycle.
      const CellId src =
          traced_driver(netlist, cell.ins[clock_pin(cell.kind)]);
      if (src.valid() && netlist.cell(src).kind == CellKind::kClkDiv2) {
        ctx.emit(RuleId::kDetClocking,
                 cat("single-edge register '", cell.name,
                     "' is clocked by divide-by-two '",
                     netlist.cell(src).name,
                     "' and would only sample every other cycle"),
                 {cell.name, netlist.cell(src).name}, {},
                 "divided clocks may only drive dual-edge FFs");
      }
    } else if (cell.kind == CellKind::kClkDiv2) {
      // Dividers sit at the leaves: gating upstream keeps ICG semantics
      // intact, and cascaded dividers would quarter the sampling rate.
      const CellId src = traced_driver(netlist, cell.ins[0]);
      if (src.valid() && netlist.cell(src).kind == CellKind::kClkDiv2) {
        ctx.emit(RuleId::kDetClocking,
                 cat("divide-by-two '", cell.name,
                     "' is fed by divide-by-two '", netlist.cell(src).name,
                     "'"),
                 {cell.name, netlist.cell(src).name}, {},
                 "insert exactly one divider per gated clock net, at the "
                 "leaf of the clock network");
      }
      for (const PinRef& ref : netlist.net(cell.out).fanouts) {
        const Cell& sink = netlist.cell(ref.cell);
        if (is_icg(sink.kind) &&
            static_cast<int>(ref.pin) == clock_pin(sink.kind)) {
          ctx.emit(RuleId::kDetClocking,
                   cat("divide-by-two '", cell.name, "' feeds ICG '",
                       sink.name,
                       "' — gating must happen before the division"),
                   {cell.name, sink.name}, {},
                   "place dividers after all ICGs so enables keep their "
                   "full-rate timing");
        }
      }
    }
  }
}

}  // namespace tp::check
