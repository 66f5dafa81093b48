#include "src/flow/backend.hpp"

#include "src/netlist/traverse.hpp"
#include "src/util/log.hpp"
#include "src/util/strcat.hpp"

namespace tp::flow {
namespace {

using check::RuleId;

/// Retiming with timing-closure iteration: when a cut leaves a setup
/// violation (upstream borrowing eats into the half-stage budgets), retry
/// on a pristine copy with progressively conservative settings — larger
/// margins, then worst-case full-borrowing launch seeds.
RetimeResult retime_with_closure(Netlist& netlist,
                                 const CellLibrary& library, Phase movable,
                                 const TimingOptions& timing) {
  struct Attempt {
    double margin;
    bool full_borrowing;
  };
  const Netlist pristine = netlist;
  RetimeResult result;
  for (const Attempt attempt : {Attempt{120, false}, Attempt{300, false},
                                Attempt{120, true}, Attempt{500, true}}) {
    netlist = pristine;
    result = retime_inserted_latches(
        netlist, library,
        {.movable_phase = movable,
         .margin_ps = attempt.margin,
         .assume_full_borrowing = attempt.full_borrowing});
    if (check_timing(netlist, library, timing).setup_ok) break;
  }
  return result;
}

/// First live register of kind `kind`; throws when the netlist has none
/// (seeded violations need a victim of the backend's own sequencing kind).
CellId find_register(const Netlist& netlist, CellKind kind) {
  for (const CellId id : netlist.registers()) {
    if (netlist.cell(id).kind == kind) return id;
  }
  throw Error(cat("seed_violation: no ", cell_kind_name(kind),
                  " register in '", netlist.name(), "'"));
}

// --- flip-flop baseline ------------------------------------------------------

class FlipFlopBackend final : public ConversionBackend {
 public:
  [[nodiscard]] DesignStyle id() const override {
    return DesignStyle::kFlipFlop;
  }
  [[nodiscard]] std::string_view token() const override { return "ff"; }
  [[nodiscard]] std::string_view display_name() const override {
    return "FF";
  }
  [[nodiscard]] std::string_view description() const override {
    return "flip-flop baseline: the synthesized design unchanged";
  }
  void convert(FlowContext& ctx) const override {
    // Nothing to convert; the FF netlist is the reference point every
    // other backend is compared (and SEC-proven) against.
    ctx.result.times.convert_s = 0;
  }
  [[nodiscard]] std::vector<RuleId> rule_set() const override {
    return {RuleId::kClockReachability, RuleId::kConstantClock,
            RuleId::kCombCycle,           RuleId::kFloatingNet,
            RuleId::kMultipleDrivers,     RuleId::kCdcUnsync,
            RuleId::kCdcReconverge,       RuleId::kRdcCrossing};
  }
  [[nodiscard]] std::vector<CellKind> cells() const override {
    return {CellKind::kDff};
  }
  RuleId seed_violation(Netlist& netlist) const override {
    // Rewire a flip-flop's clock pin onto its own data net: the backward
    // clock walk lands in data logic instead of a phase root.
    const CellId victim = find_register(netlist, CellKind::kDff);
    const NetId d = netlist.cell(victim).ins[0];
    netlist.morph_cell(victim, CellKind::kDff, {d, d});
    return RuleId::kClockReachability;
  }
};

// --- master-slave baseline ---------------------------------------------------

class MasterSlaveBackend final : public ConversionBackend {
 public:
  [[nodiscard]] DesignStyle id() const override {
    return DesignStyle::kMasterSlave;
  }
  [[nodiscard]] std::string_view token() const override { return "ms"; }
  [[nodiscard]] std::string_view display_name() const override {
    return "M-S";
  }
  [[nodiscard]] std::string_view description() const override {
    return "master-slave: each FF split into a latch pair on one clock "
           "net, slaves retimed into the logic";
  }
  void convert(FlowContext& ctx) const override {
    Stopwatch step;
    ctx.netlist = to_master_slave(ctx.netlist);
    ctx.result.times.convert_s = step.seconds();
    ctx.checkpoint("convert");
    step.reset();
    if (ctx.options.retime && ctx.options.retime_master_slave) {
      ctx.result.retime = retime_with_closure(ctx.netlist, ctx.library,
                                              Phase::kClk, ctx.options.timing);
      ctx.result.times.retime_s = step.seconds();
      ctx.checkpoint("retime");
    }
  }
  [[nodiscard]] std::vector<RuleId> rule_set() const override {
    return {RuleId::kClockReachability, RuleId::kConstantClock,
            RuleId::kScheduleSanity,      RuleId::kCdcUnsync,
            RuleId::kCdcReconverge,       RuleId::kRdcCrossing};
  }
  [[nodiscard]] std::vector<CellKind> cells() const override {
    return {CellKind::kLatchL, CellKind::kLatchH};
  }
  RuleId seed_violation(Netlist& netlist) const override {
    // Tie a latch gate to constant 1: permanently transparent.
    const CellId victim = find_register(netlist, CellKind::kLatchH);
    const CellId one =
        netlist.add_gate(CellKind::kConst1, "seed_const1", {});
    netlist.morph_cell(victim, CellKind::kLatchH,
                       {netlist.cell(victim).ins[0], netlist.cell(one).out});
    return RuleId::kConstantClock;
  }
};

// --- 3-phase (the paper's conversion) ----------------------------------------

class ThreePhaseBackend final : public ConversionBackend {
 public:
  [[nodiscard]] DesignStyle id() const override {
    return DesignStyle::kThreePhase;
  }
  [[nodiscard]] std::string_view token() const override { return "3p"; }
  [[nodiscard]] std::string_view display_name() const override {
    return "3-P";
  }
  [[nodiscard]] std::string_view description() const override {
    return "3-phase latches (the paper's conversion): ILP phase "
           "assignment, p2 insertion, retiming, common-enable/M1/M2/DDCG "
           "clock gating";
  }
  void convert(FlowContext& ctx) const override {
    Netlist& netlist = ctx.netlist;
    FlowResult& result = ctx.result;
    const FlowOptions& options = ctx.options;
    Stopwatch step;
    // ILP timed apart from the netlist rebuild (the paper reports the
    // solver at < 1% of total run time).
    const RegisterGraph graph = build_register_graph(netlist);
    result.assignment = assign_phases(graph, options.assign);
    result.times.ilp_s = step.seconds();
    step.reset();

    ThreePhaseOptions convert_options;
    convert_options.precomputed = &result.assignment;
    ThreePhaseResult converted = to_three_phase(netlist, convert_options);
    netlist = std::move(converted.netlist);
    result.inserted_p2 = converted.inserted_p2;
    result.duplicated_icgs = converted.duplicated_icgs;
    result.times.convert_s = step.seconds();
    ctx.checkpoint("convert");
    step.reset();

    if (options.retime) {
      result.retime = retime_with_closure(netlist, ctx.library, Phase::kP2,
                                          options.timing);
      result.times.retime_s = step.seconds();
      ctx.checkpoint("retime");
      step.reset();
    }

    if (options.p2_common_enable_cg) {
      result.p2_gating = gate_p2_latches(netlist, {.use_m1 = options.use_m1});
      result.times.clock_gating_s += step.seconds();
      ctx.checkpoint("p2-gating");
      step.reset();
    }
    if (options.use_m2) {
      result.m2 = apply_m2(netlist);
      result.times.clock_gating_s += step.seconds();
      ctx.checkpoint("m2");
      step.reset();
    }
    if (options.ddcg) {
      // DDCG needs switching activity of this very netlist (Sec. V:
      // gate-level simulations drive the data-driven clock gating).
      const ActivityStats activity = ctx.activity();
      result.ddcg = apply_ddcg(netlist, activity, options.ddcg_options);
      result.times.clock_gating_s += step.seconds();
      ctx.checkpoint("ddcg");
    }
  }
  [[nodiscard]] std::vector<RuleId> rule_set() const override {
    return {RuleId::kTransparencyRace, RuleId::kPhaseOrder,
            RuleId::kLatchSelfLoop,    RuleId::kScheduleSanity,
            RuleId::kMixedPhaseIcg,    RuleId::kDdcgFanout,
            RuleId::kM1BorrowWindow,   RuleId::kM2EnablePhase,
            RuleId::kCdcUnsync,        RuleId::kCdcReconverge,
            RuleId::kRdcCrossing};
  }
  [[nodiscard]] std::vector<CellKind> cells() const override {
    return {CellKind::kLatchH, CellKind::kIcg, CellKind::kIcgM1,
            CellKind::kIcgNoLatch};
  }
  RuleId seed_violation(Netlist& netlist) const override {
    // Preferred seed: bypass an inserted p2 latch sitting between a p3
    // and a p1 latch — the exact dropped-latch defect C1 exists to catch.
    const RegisterGraph graph = build_register_graph(netlist);
    for (std::size_t w = 0; w < graph.regs.size(); ++w) {
      const Cell& cw = netlist.cell(graph.regs[w]);
      if (cw.phase != Phase::kP2 || !is_latch(cw.kind)) continue;
      bool from_p3 = false;
      for (std::size_t u = 0; u < graph.regs.size() && !from_p3; ++u) {
        for (const int v : graph.fanout[u]) {
          if (v == static_cast<int>(w) &&
              netlist.cell(graph.regs[u]).phase == Phase::kP3) {
            from_p3 = true;
            break;
          }
        }
      }
      if (!from_p3) continue;
      for (const int v : graph.fanout[w]) {
        if (netlist.cell(graph.regs[v]).phase != Phase::kP1) continue;
        netlist.morph_cell(graph.regs[w], CellKind::kBuf,
                           {netlist.cell(graph.regs[w]).ins[0]});
        netlist.set_phase(graph.regs[w], Phase::kNone);
        return RuleId::kPhaseOrder;
      }
    }
    // Fallback when the benchmark has no p3 -> p2 -> p1 chain: break the
    // SMO closing-edge order instead (e2 > e3).
    ClockSpec& clocks = netlist.clocks();
    for (PhaseWaveform& wave : clocks.phases) {
      if (wave.phase == Phase::kP2) {
        wave.fall_ps = clocks.period_ps + 10;
      }
    }
    return RuleId::kScheduleSanity;
  }
};

// --- pulsed latch ------------------------------------------------------------

class PulsedLatchBackend final : public ConversionBackend {
 public:
  [[nodiscard]] DesignStyle id() const override {
    return DesignStyle::kPulsedLatch;
  }
  [[nodiscard]] std::string_view token() const override { return "pl"; }
  [[nodiscard]] std::string_view display_name() const override {
    return "P-L";
  }
  [[nodiscard]] std::string_view description() const override {
    return "pulsed latches: shared pulse generators, near-edge-triggered "
           "behavior at latch cost (hold-repair heavy)";
  }
  void convert(FlowContext& ctx) const override {
    Stopwatch step;
    PulsedLatchResult converted =
        to_pulsed_latch(ctx.netlist, ctx.options.pulsed_latch);
    ctx.netlist = std::move(converted.netlist);
    ctx.result.pulse_generators = converted.pulse_generators;
    ctx.result.times.convert_s = step.seconds();
    ctx.checkpoint("convert");
  }
  [[nodiscard]] std::vector<RuleId> rule_set() const override {
    return {RuleId::kPulseWidth,     RuleId::kClockReachability,
            RuleId::kScheduleSanity, RuleId::kCdcUnsync,
            RuleId::kCdcReconverge,  RuleId::kRdcCrossing};
  }
  [[nodiscard]] std::vector<CellKind> cells() const override {
    return {CellKind::kLatchP};
  }
  RuleId seed_violation(Netlist& netlist) const override {
    // Stretch the pulse past half the cycle: the latches degenerate into
    // level-sensitive operation.
    ClockSpec& clocks = netlist.clocks();
    require(!clocks.phases.empty(), "seed_violation: no clock plan");
    clocks.phases.front().fall_ps =
        clocks.phases.front().rise_ps + clocks.period_ps / 2 +
        clocks.period_ps / 4;
    return RuleId::kPulseWidth;
  }
};

// --- two-phase non-overlapping ----------------------------------------------

class TwoPhaseBackend final : public ConversionBackend {
 public:
  [[nodiscard]] DesignStyle id() const override {
    return DesignStyle::kTwoPhase;
  }
  [[nodiscard]] std::string_view token() const override { return "2p"; }
  [[nodiscard]] std::string_view display_name() const override {
    return "2-P";
  }
  [[nodiscard]] std::string_view description() const override {
    return "two-phase non-overlapping latches: master on clkbar, slave on "
           "clk, guard gaps on both hand-offs";
  }
  void convert(FlowContext& ctx) const override {
    Stopwatch step;
    TwoPhaseResult converted =
        to_two_phase(ctx.netlist, ctx.options.two_phase);
    ctx.netlist = std::move(converted.netlist);
    ctx.result.duplicated_icgs = converted.duplicated_icgs;
    ctx.result.times.convert_s = step.seconds();
    ctx.checkpoint("convert");
  }
  [[nodiscard]] std::vector<RuleId> rule_set() const override {
    return {RuleId::kTwoPhaseNonOverlap, RuleId::kClockReachability,
            RuleId::kScheduleSanity,     RuleId::kCdcUnsync,
            RuleId::kCdcReconverge,      RuleId::kRdcCrossing};
  }
  [[nodiscard]] std::vector<CellKind> cells() const override {
    return {CellKind::kLatchH};
  }
  RuleId seed_violation(Netlist& netlist) const override {
    // Erase the guard gap between clk's fall and clkbar's rise. The
    // windows merely abut — still disjoint, so schedule-sanity stays
    // quiet — but the non-overlap discipline is gone.
    ClockSpec& clocks = netlist.clocks();
    PhaseWaveform* clk = nullptr;
    PhaseWaveform* clkbar = nullptr;
    for (PhaseWaveform& wave : clocks.phases) {
      if (wave.phase == Phase::kClk) clk = &wave;
      if (wave.phase == Phase::kClkBar) clkbar = &wave;
    }
    require(clk != nullptr && clkbar != nullptr,
            "seed_violation: not a two-phase clock plan");
    clk->fall_ps = clkbar->rise_ps;
    return RuleId::kTwoPhaseNonOverlap;
  }
};

// --- dual-edge-triggered FF retarget -----------------------------------------

class DetFfBackend final : public ConversionBackend {
 public:
  [[nodiscard]] DesignStyle id() const override {
    return DesignStyle::kDetFf;
  }
  [[nodiscard]] std::string_view token() const override { return "det"; }
  [[nodiscard]] std::string_view display_name() const override {
    return "DET";
  }
  [[nodiscard]] std::string_view description() const override {
    return "dual-edge-triggered FFs on leaf-divided clocks: half the "
           "clock-network edges per cycle";
  }
  void convert(FlowContext& ctx) const override {
    Stopwatch step;
    DetFfResult converted = to_det_ff(ctx.netlist);
    ctx.netlist = std::move(converted.netlist);
    ctx.result.dividers = converted.dividers;
    ctx.result.times.convert_s = step.seconds();
    ctx.checkpoint("convert");
  }
  [[nodiscard]] std::vector<RuleId> rule_set() const override {
    return {RuleId::kDetClocking,    RuleId::kClockReachability,
            RuleId::kScheduleSanity, RuleId::kCdcUnsync,
            RuleId::kCdcReconverge,  RuleId::kRdcCrossing};
  }
  [[nodiscard]] std::vector<CellKind> cells() const override {
    return {CellKind::kDffDet, CellKind::kClkDiv2};
  }
  RuleId seed_violation(Netlist& netlist) const override {
    // Reconnect a DET FF's clock pin past its divider to the full-rate
    // clock: the FF would sample on both raw edges, twice per cycle.
    const CellId victim = find_register(netlist, CellKind::kDffDet);
    const CellId divider =
        netlist.net(netlist.cell(victim).ins[1]).driver;
    require(divider.valid() &&
                netlist.cell(divider).kind == CellKind::kClkDiv2,
            "seed_violation: DET register not behind a divider");
    netlist.morph_cell(victim, CellKind::kDffDet,
                       {netlist.cell(victim).ins[0],
                        netlist.cell(divider).ins[0]});
    return RuleId::kDetClocking;
  }
};

}  // namespace

void ConversionBackend::adjust_library(CellLibrary&) const {}

check::RuleId ConversionBackend::seed_cdc_violation(Netlist& netlist) const {
  // Generic plant, valid for every sequencing discipline: clock a fresh
  // source register off a /2 divider hung on an existing register's clock
  // pin, then merge its output combinationally into that register's data
  // pin. The source samples at half the victim's effective rate and the
  // merge gate is not a two-register synchronizer, so A4 must fire.
  const std::vector<CellId> regs = netlist.registers();
  if (regs.empty()) {
    throw Error(cat("seed_cdc_violation: no registers in '", netlist.name(),
                    "'"));
  }
  const CellId victim = regs.front();
  const Cell& victim_cell = netlist.cell(victim);
  const NetId victim_clk = victim_cell.ins[clock_pin(victim_cell.kind)];
  const NetId victim_d = victim_cell.ins[0];
  const CellId divider =
      netlist.add_gate(CellKind::kClkDiv2, "cdc_seed_div", {victim_clk});
  const CellId src = netlist.add_gate(
      CellKind::kDff, "cdc_seed_src",
      {victim_d, netlist.cell(divider).out}, victim_cell.phase);
  const CellId mix = netlist.add_gate(
      CellKind::kAnd2, "cdc_seed_mix",
      {victim_d, netlist.cell(src).out});
  netlist.replace_input(victim, 0, netlist.cell(mix).out);
  return check::RuleId::kCdcUnsync;
}

check::RuleId ConversionBackend::seed_rdc_violation(Netlist& netlist) const {
  // Generic plant: pick an existing register-to-register edge and put its
  // two endpoints in different reset domains, with the source's root
  // released no earlier than the destination's — the destination can then
  // capture pre-reset garbage from the source, which A6 must flag.
  const RegisterGraph graph = build_register_graph(netlist);
  for (std::size_t u = 0; u < graph.regs.size(); ++u) {
    for (const int v : graph.fanout[u]) {
      if (static_cast<std::size_t>(v) == u) continue;
      const CellId src_root = netlist.add_input("rdc_seed_rst_late");
      const CellId dst_root = netlist.add_input("rdc_seed_rst_early");
      netlist.declare_reset_root(src_root, /*active_low=*/true,
                                 /*release_order=*/1);
      netlist.declare_reset_root(dst_root, /*active_low=*/true,
                                 /*release_order=*/0);
      netlist.set_reset(graph.regs[u], netlist.cell(src_root).out);
      netlist.set_reset(graph.regs[static_cast<std::size_t>(v)],
                        netlist.cell(dst_root).out);
      return check::RuleId::kRdcCrossing;
    }
  }
  throw Error(cat("seed_rdc_violation: no register-to-register edge in '",
                  netlist.name(), "'"));
}

const std::vector<const ConversionBackend*>& backend_registry() {
  static const FlipFlopBackend ff;
  static const MasterSlaveBackend ms;
  static const ThreePhaseBackend three_phase;
  static const PulsedLatchBackend pulsed;
  static const TwoPhaseBackend two_phase;
  static const DetFfBackend det;
  static const std::vector<const ConversionBackend*> registry = {
      &ff, &ms, &three_phase, &pulsed, &two_phase, &det};
  return registry;
}

const ConversionBackend& backend_for(DesignStyle style) {
  for (const ConversionBackend* backend : backend_registry()) {
    if (backend->id() == style) return *backend;
  }
  throw Error("backend_for: unregistered design style");
}

const ConversionBackend* find_backend(std::string_view token) {
  for (const ConversionBackend* backend : backend_registry()) {
    if (backend->token() == token) return backend;
  }
  return nullptr;
}

std::string backend_token_list() {
  std::string out;
  for (const ConversionBackend* backend : backend_registry()) {
    if (!out.empty()) out += ", ";
    out += backend->token();
  }
  return out;
}

}  // namespace tp::flow
