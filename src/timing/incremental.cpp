#include "src/timing/incremental.hpp"

#include <algorithm>
#include <cstdio>

#include "src/util/log.hpp"
#include "src/util/strcat.hpp"

namespace tp {
namespace {

constexpr double kNegInf = -1e18;
constexpr double kPosInf = 1e18;

/// Cycle shift of a launch class relative to a capture close: the intended
/// capture is the first closing edge strictly after the launcher's own
/// closing edge (data departing as late as the launch close must still make
/// the same logical transfer). Same-window pairs (FF-to-FF, pulsed-latch
/// pairs) therefore shift a full cycle.
int cycle_shift(double launch_close, double capture_close) {
  return capture_close > launch_close ? 0 : 1;
}

/// True for cells the arrival propagation evaluates: live combinational
/// logic with an output, excluding the clock network (ideal clocks carry
/// no data arrivals).
bool propagated(const Cell& cell) {
  return cell.alive && is_combinational(cell.kind) &&
         !is_clock_cell(cell.kind) && cell.out.valid();
}

void append_hex(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out += buf;
}

}  // namespace

TransparencyWindow register_window(const Netlist& netlist, const Cell& cell) {
  const PhaseWaveform* w = netlist.clocks().find(cell.phase);
  require(w != nullptr, cat("sta: register ", cell.name,
                            " has no phase waveform (phase ",
                            phase_name(cell.phase), ")"));
  const auto period = static_cast<double>(netlist.clocks().period_ps);
  switch (cell.kind) {
    case CellKind::kDff:
    case CellKind::kDffEn:
    case CellKind::kDffDet:
      // A DET FF samples on both edges, but behind a kClkDiv2 the clock
      // toggles once per cycle at the phase rise, so the zero-width window
      // at the rise models the single per-cycle sampling instant.
      return {static_cast<double>(w->rise_ps),
              static_cast<double>(w->rise_ps)};
    case CellKind::kLatchH:
    case CellKind::kLatchP:
      return {static_cast<double>(w->rise_ps),
              static_cast<double>(w->fall_ps)};
    case CellKind::kLatchL:
      return {static_cast<double>(w->fall_ps),
              static_cast<double>(w->rise_ps) + period};
    default:
      throw Error("sta: not a register");
  }
}

SmoEngine::SmoEngine(const CellLibrary& library, const TimingOptions& options,
                     bool track_borrow)
    : library_(library), options_(options), track_borrow_(track_borrow) {}

std::size_t SmoEngine::class_of(const TransparencyWindow& w) const {
  return static_cast<std::size_t>(
      std::lower_bound(classes_.begin(), classes_.end(),
                       std::make_pair(w.r, w.f)) -
      classes_.begin());
}

void SmoEngine::build_structure(const Netlist& netlist) {
  num_cells_ = netlist.num_cells();
  num_nets_ = netlist.num_nets();
  lev_ = levelize(netlist);
  registers_ = netlist.registers();
  data_inputs_ = netlist.data_inputs();
  // Net loads and per-cell max delays are pure functions of the structure;
  // memoizing them here removes the per-pass pointer-chasing net_load_ff
  // walk the historical analyze() repeated every fixpoint iteration.
  load_.assign(num_nets_, 0.0);
  for (std::uint32_t n = 0; n < num_nets_; ++n) {
    if (netlist.net(NetId{n}).alive) {
      load_[n] = library_.net_load_ff(netlist, NetId{n});
    }
  }
  delay_max_.assign(num_cells_, 0.0);
  for (std::uint32_t i = 0; i < num_cells_; ++i) {
    const Cell& cell = netlist.cell(CellId{i});
    if (cell.alive && cell.out.valid()) {
      delay_max_[i] = library_.delay_ps(cell.kind, load_[cell.out.value()]);
    }
  }
  structure_ready_ = true;
}

void SmoEngine::build_windows(const Netlist& netlist) {
  // Launch classes: distinct (open, close) register windows plus the
  // primary-input class (PIs change at cycle start and are FF-like: a
  // zero-width window at t = 0).
  windows_.assign(num_cells_, TransparencyWindow{});
  classes_.clear();
  classes_.push_back({0.0, 0.0});
  for (const CellId id : registers_) {
    windows_[id.value()] = register_window(netlist, netlist.cell(id));
    classes_.push_back({windows_[id.value()].r, windows_[id.value()].f});
  }
  std::sort(classes_.begin(), classes_.end());
  classes_.erase(std::unique(classes_.begin(), classes_.end()),
                 classes_.end());
  pi_class_ = class_of(TransparencyWindow{0.0, 0.0});
}

void SmoEngine::recompute_max_row(const Netlist& netlist, CellId id) {
  const Cell& cell = netlist.cell(id);
  const double delay = delay_max_[id.value()];
  const std::uint32_t out = cell.out.value();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    double best = kNegInf;
    NetId best_in;
    for (const NetId in : cell.ins) {
      const double a = arr_max_[c][in.value()];
      if (a > best) {
        best = a;
        best_in = in;
      }
    }
    if (best <= kNegInf || best >= kPosInf) {
      arr_max_[c][out] = best;
    } else {
      arr_max_[c][out] = best + delay;
    }
    if (track_borrow_) pred_[c][out] = best_in;
  }
}

void SmoEngine::recompute_min_row(const Netlist& netlist, CellId id) {
  const Cell& cell = netlist.cell(id);
  const double delay = library_.params(cell.kind).intrinsic_ps;
  const std::uint32_t out = cell.out.value();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    double best = kPosInf;
    for (const NetId in : cell.ins) {
      const double a = arr_min_[c][in.value()];
      if (a < best) best = a;
    }
    if (best <= kNegInf || best >= kPosInf) {
      arr_min_[c][out] = best;
    } else {
      arr_min_[c][out] = best + delay;
    }
  }
}

double SmoEngine::register_departure(const Netlist& netlist,
                                     CellId id) const {
  const Cell& cell = netlist.cell(id);
  const TransparencyWindow& w = windows_[id.value()];
  // Pulsed latches are edge-sampled: data launched in the same cycle
  // cannot flow through, so their cycle alignment keys on the sampling
  // edge; the setup check still grants the [r, f] borrowing window.
  const double shift_ref = cell.kind == CellKind::kLatchP ? w.r : w.f;
  double arrival = kNegInf;
  for (std::size_t pin = 0; pin < cell.ins.size(); ++pin) {
    if (static_cast<int>(pin) == clock_pin(cell.kind)) continue;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const double a = arr_max_[c][cell.ins[pin].value()];
      if (a <= kNegInf) continue;
      arrival = std::max(
          arrival,
          a - period_ * cycle_shift(classes_[c].second, shift_ref));
    }
  }
  // Borrowing is clamped at the window close: data arriving later does
  // not pass (the setup check reports the violation); without the clamp,
  // failing feedback loops would diverge instead of converging.
  return std::max(w.r, std::min(arrival, w.f)) + delay_max_[id.value()];
}

bool SmoEngine::update_register(const Netlist& netlist, CellId id) {
  const double v = register_departure(netlist, id);
  if (v > valid_[id.value()] + 1e-9) {
    valid_[id.value()] = v;
    const std::size_t c = class_of(windows_[id.value()]);
    const std::uint32_t out = netlist.cell(id).out.value();
    if (v > arr_max_[c][out]) {
      arr_max_[c][out] = v;
      return true;
    }
  }
  return false;
}

void SmoEngine::compute_register_checks(const Netlist& netlist, CellId id) {
  const Cell& cell = netlist.cell(id);
  const TransparencyWindow& w = windows_[id.value()];
  const CellParams& p = library_.params(cell.kind);
  const double shift_ref = cell.kind == CellKind::kLatchP ? w.r : w.f;
  double setup_slack_cell = kPosInf;
  std::vector<double>& holds = hold_pins_[id.value()];
  holds.assign(cell.ins.size(), kPosInf);
  for (std::size_t pin = 0; pin < cell.ins.size(); ++pin) {
    if (static_cast<int>(pin) == clock_pin(cell.kind)) continue;
    const NetId d = cell.ins[pin];
    double hold_slack = kPosInf;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      // A launcher with the identical non-zero window is a same-phase
      // transparent chain (e.g. two p2 latches in series after a merged
      // retiming cut): data flows through both within the shared window
      // by design, so there is no previous capture to corrupt. Zero-width
      // windows (flip-flops) still race and are checked.
      if (classes_[c].first == w.r && classes_[c].second == w.f &&
          w.f > w.r && cell.kind != CellKind::kLatchP) {
        continue;
      }
      const int k = cycle_shift(classes_[c].second, shift_ref);
      const double a_max = arr_max_[c][d.value()];
      if (a_max > kNegInf) {
        const double slack = (w.f - p.setup_ps) - (a_max - period_ * k);
        setup_slack_cell = std::min(setup_slack_cell, slack);
      }
      if (!setup_only_) {
        const double a_min = arr_min_[c][d.value()];
        if (a_min < kPosInf) {
          const double slack = (a_min + period_ * (1 - k)) - w.f -
                               p.hold_ps - options_.hold_uncertainty_ps;
          hold_slack = std::min(hold_slack, slack);
        }
      }
    }
    holds[pin] = hold_slack;
  }
  setup_cell_[id.value()] = setup_slack_cell;
}

double SmoEngine::compute_po_slack(const Netlist& netlist, CellId po) const {
  const NetId net = netlist.cell(po).ins[0];
  double worst = kPosInf;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const double a = arr_max_[c][net.value()];
    if (a <= kNegInf) continue;
    worst = std::min(worst, (period_ - options_.output_setup_ps) - a);
  }
  return worst;
}

void SmoEngine::build_report(const Netlist& netlist) {
  // Rebuilding the worst-point scan from the per-cell caches reproduces
  // the historical inline tracking exactly: the old code updated its
  // running worst on strict '<' in (register id, pin, class) order, so the
  // recorded point is the first cell attaining the global minimum — which
  // is what a strict '<' scan over per-cell minima yields as well.
  report_.setup_ok = true;
  report_.hold_ok = true;
  report_.worst_setup_slack_ps = kPosInf;
  report_.worst_hold_slack_ps = kPosInf;
  report_.worst_setup_point.clear();
  report_.worst_hold_point.clear();
  for (const CellId id : registers_) {
    const double s = setup_cell_[id.value()];
    if (s < kPosInf) {
      if (s < report_.worst_setup_slack_ps) {
        report_.worst_setup_slack_ps = s;
        report_.worst_setup_point = netlist.cell(id).name;
      }
      if (s < 0) report_.setup_ok = false;
    }
    for (const double h : hold_pins_[id.value()]) {
      if (h < kPosInf) {
        if (h < report_.worst_hold_slack_ps) {
          report_.worst_hold_slack_ps = h;
          report_.worst_hold_point = netlist.cell(id).name;
        }
        if (h < 0) report_.hold_ok = false;
      }
    }
  }
  // Primary outputs as zero-width capture windows at the cycle boundary.
  if (options_.output_setup_ps >= 0) {
    for (const CellId po : netlist.outputs()) {
      if (!netlist.cell(po).alive) continue;
      const double s = po_slack_[po.value()];
      if (s < kPosInf) {
        if (s < report_.worst_setup_slack_ps) {
          report_.worst_setup_slack_ps = s;
          report_.worst_setup_point = netlist.cell(po).name;
        }
        if (s < 0) report_.setup_ok = false;
      }
    }
  }
  if (report_.worst_setup_slack_ps >= kPosInf) {
    report_.worst_setup_slack_ps = 0;
  }
  if (report_.worst_hold_slack_ps >= kPosInf) report_.worst_hold_slack_ps = 0;
}

void SmoEngine::run_full(const Netlist& netlist, bool setup_only,
                         bool reuse_structure) {
  period_ = static_cast<double>(netlist.clocks().period_ps);
  if (!reuse_structure || !structure_ready_) build_structure(netlist);
  build_windows(netlist);
  setup_only_ = setup_only;
  const std::size_t num_classes = classes_.size();
  arr_max_.assign(num_classes, std::vector<double>(num_nets_, kNegInf));
  arr_min_.assign(num_classes, std::vector<double>(num_nets_, kPosInf));
  if (track_borrow_) {
    pred_.assign(num_classes, std::vector<NetId>(num_nets_));
  }

  // Primary-input seeds.
  for (const CellId pi : data_inputs_) {
    const NetId net = netlist.cell(pi).out;
    arr_max_[pi_class_][net.value()] = options_.input_delay_ps;
    arr_min_[pi_class_][net.value()] = options_.input_delay_ps;
  }
  // Earliest-departure seeds (independent of arrivals: data cannot leave a
  // register before its window opens).
  for (const CellId id : registers_) {
    const Cell& cell = netlist.cell(id);
    const TransparencyWindow& w = windows_[id.value()];
    const double d2q_min = library_.params(cell.kind).intrinsic_ps;
    double& slot = arr_min_[class_of(w)][cell.out.value()];
    slot = std::min(slot, w.r + d2q_min);
  }

  // Earliest arrivals: one pass (seeds are fixed).
  if (!setup_only) {
    for (const CellId id : lev_.comb_order) {
      const Cell& cell = netlist.cell(id);
      if (is_clock_cell(cell.kind) || !cell.out.valid()) continue;
      recompute_min_row(netlist, id);
    }
  }

  // Latest arrivals: fixpoint over register departures (time borrowing).
  valid_.assign(num_cells_, kNegInf);
  bool changed = true;
  int iterations = 0;
  while (changed && iterations < options_.max_iterations) {
    ++iterations;
    changed = false;
    for (const CellId id : lev_.comb_order) {
      const Cell& cell = netlist.cell(id);
      if (is_clock_cell(cell.kind) || !cell.out.valid()) continue;
      recompute_max_row(netlist, id);
    }
    for (const CellId id : registers_) {
      changed = update_register(netlist, id) || changed;
    }
  }
  report_.iterations = iterations;
  report_.converged = !changed;

  // Setup / hold checks at every register, then primary outputs.
  setup_cell_.assign(num_cells_, kPosInf);
  hold_pins_.assign(num_cells_, std::vector<double>());
  po_slack_.assign(num_cells_, kPosInf);
  for (const CellId id : registers_) compute_register_checks(netlist, id);
  if (options_.output_setup_ps >= 0) {
    for (const CellId po : netlist.outputs()) {
      if (!netlist.cell(po).alive) continue;
      po_slack_[po.value()] = compute_po_slack(netlist, po);
    }
  }
  build_report(netlist);
  rows_dirty_ = true;
}

const std::vector<std::pair<CellId, double>>& SmoEngine::setup_rows() const {
  if (rows_dirty_) {
    setup_rows_.clear();
    hold_rows_.clear();
    for (const CellId id : registers_) {
      for (const double h : hold_pins_[id.value()]) {
        if (h < kPosInf) hold_rows_.push_back({id, h});
      }
      const double s = setup_cell_[id.value()];
      if (s < kPosInf) setup_rows_.push_back({id, s});
    }
    rows_dirty_ = false;
  }
  return setup_rows_;
}

const std::vector<std::pair<CellId, double>>& SmoEngine::hold_rows() const {
  static_cast<void>(setup_rows());  // one rebuild refreshes both
  return hold_rows_;
}

std::vector<BorrowRecord> SmoEngine::borrow_records(
    const Netlist& netlist) const {
  require(track_borrow_,
          "SmoEngine::borrow_records: engine built without track_borrow");
  // Per register: the worst capture-frame arrival and the launching
  // register on the path that produced it. The final propagate pass of the
  // fixpoint left pred_ consistent with arr_max_.
  std::vector<BorrowRecord> records;
  records.reserve(registers_.size());
  for (const CellId id : registers_) {
    const Cell& cell = netlist.cell(id);
    const TransparencyWindow& w = windows_[id.value()];
    const double shift_ref = cell.kind == CellKind::kLatchP ? w.r : w.f;
    BorrowRecord rec;
    rec.cell = id;
    rec.open_ps = w.r;
    rec.close_ps = w.f;
    double best = kNegInf;
    std::size_t best_class = 0;
    NetId best_net;
    for (std::size_t pin = 0; pin < cell.ins.size(); ++pin) {
      if (static_cast<int>(pin) == clock_pin(cell.kind)) continue;
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        const double a = arr_max_[c][cell.ins[pin].value()];
        if (a <= kNegInf) continue;
        const double shifted =
            a - period_ * cycle_shift(classes_[c].second, shift_ref);
        if (shifted > best + 1e-9) {
          best = shifted;
          best_class = c;
          best_net = cell.ins[pin];
        }
      }
    }
    if (best > kNegInf) {
      rec.has_arrival = true;
      rec.arrival_ps = best;
      rec.borrow_ps = std::max(0.0, std::min(best, w.f) - w.r);
      // Walk the critical fan-in chain back to the launching register.
      NetId net = best_net;
      for (std::size_t step = 0; step <= netlist.num_cells(); ++step) {
        const CellId drv = netlist.net(net).driver;
        if (!drv.valid()) break;
        const Cell& dc = netlist.cell(drv);
        if (is_register(dc.kind)) {
          rec.upstream = drv;
          break;
        }
        if (!is_combinational(dc.kind) || is_clock_cell(dc.kind)) break;
        net = pred_[best_class][net.value()];
        if (!net.valid()) break;
      }
    }
    records.push_back(rec);
  }
  return records;
}

IncrementalTimer::IncrementalTimer(const CellLibrary& library,
                                   const TimingOptions& options,
                                   bool track_borrow)
    : engine_(library, options, track_borrow) {}

const TimingReport& IncrementalTimer::sync(const Netlist& netlist) {
  if (netlist_ == &netlist && edits_ == netlist.edits() &&
      clocks_ == netlist.clocks()) {
    ++stats_.skipped_runs;
  } else {
    netlist_ = nullptr;  // a run that throws must leave no cache behind
    engine_.run_full(netlist);
    netlist_ = &netlist;
    edits_ = netlist.edits();
    clocks_ = netlist.clocks();
    ++stats_.full_runs;
  }
  return engine_.report();
}

namespace {

/// Decision slop for the min-period fast probe. The oracle and the engine
/// evaluate mathematically identical max-plus sums with different add
/// orderings (the oracle pre-folds combinational path delays into edge
/// weights), so their values agree only to ulps. Any check landing within
/// this margin of a decision boundary is "too close to call" and the probe
/// falls back to the engine.
constexpr double kOracleMargin = 1e-6;

/// The engine accepts a register-departure update when it exceeds the
/// cached value by more than 1e-9. An oracle delta inside this band around
/// that threshold could round to the other side of the engine's compare,
/// silently changing the fixpoint trajectory — such probes are punted to
/// the engine. The band is ~100x wider than the worst accumulated ulp
/// noise of a deep path sum, and real update deltas are combinations of
/// cell delays and window offsets (picosecond scale), so it essentially
/// never triggers.
constexpr double kAmbiguousLo = 1e-10;
constexpr double kAmbiguousHi = 1e-8;

/// Fast probe path for find_min_period(). Combinational path delays are
/// period-independent — rescaling the clock plan only moves the register
/// windows — so the SMO arrival fixpoint can be condensed onto the
/// register graph once and replayed per probe in O(edges) per iteration
/// instead of O(launch classes x nets).
///
/// Construction walks each register data pin's (and, with output checks
/// enabled, each PO pin's) combinational fan-in cone backward to the
/// launching registers / primary inputs, recording one max-delay edge per
/// (source, pin). decide() then runs the engine's own iteration scheme on
/// those edges: per round, each register's arrival is the max over edges
/// of source departure plus edge weight minus the class cycle shift, and
/// its departure max(w.r, min(arrival, w.f)) + clk->q is accepted exactly
/// when it beats the cached value by the engine's 1e-9 tolerance.
/// Direct register-to-register edges (no combinational cell between) read
/// the current round's departures for earlier-ordered registers — the
/// engine's update loop writes arrival rows in place, so a direct
/// consumer later in netlist.registers() order sees the fresh value
/// within the same iteration — while combinational-cone edges read the
/// previous round's (the engine's comb pass runs before the register
/// updates). This reproduces the engine's iteration trajectory, its
/// convergence flag, and its setup verdict decision-for-decision; the only
/// divergence channel is floating-point add ordering, which is fenced by
/// kOracleMargin on check slacks and kAmbiguousLo/Hi on update deltas —
/// any probe near a boundary returns "unknown" and runs the engine.
///
/// Designs whose register fan-in cones are too entangled (total walked
/// cone cells beyond a multiple of the combinational cell count) disable
/// the oracle at construction; every probe then takes the engine path,
/// which is the status quo.
class MinPeriodOracle {
 public:
  MinPeriodOracle(const Netlist& netlist, const CellLibrary& library,
                  const TimingOptions& options)
      : library_(library), options_(options) {
    const Levelization lev = levelize(netlist);
    registers_ = netlist.registers();
    const std::uint32_t num_cells = netlist.num_cells();
    const std::uint32_t num_nets = netlist.num_nets();
    std::vector<double> delay_max(num_cells, 0.0);
    for (std::uint32_t i = 0; i < num_cells; ++i) {
      const Cell& cell = netlist.cell(CellId{i});
      if (cell.alive && cell.out.valid()) {
        delay_max[i] =
            library.delay_ps(cell.kind, library.net_load_ff(netlist, cell.out));
      }
    }
    delay_reg_.resize(registers_.size());
    reg_group_.assign(num_cells, 0);
    std::vector<std::int32_t> reg_index(num_nets, -1);  // by output net
    for (std::size_t i = 0; i < registers_.size(); ++i) {
      const Cell& cell = netlist.cell(registers_[i]);
      delay_reg_[i] = delay_max[registers_[i].value()];
      reg_index[cell.out.value()] = static_cast<std::int32_t>(i);
      std::size_t g = 0;
      for (; g < reps_.size(); ++g) {
        const Cell& rep = netlist.cell(reps_[g]);
        if (rep.phase == cell.phase && rep.kind == cell.kind) break;
      }
      if (g == reps_.size()) reps_.push_back(registers_[i]);
      reg_group_[registers_[i].value()] = g;
    }
    std::vector<char> pi_net(num_nets, 0);
    for (const CellId pi : netlist.data_inputs()) {
      pi_net[netlist.cell(pi).out.value()] = 1;
    }

    // Backward longest-path walk from one pin to every launching source.
    // Cone cells are relaxed in descending level order (reverse topological
    // for the fan-in direction), so each distance is final when read.
    std::vector<double> dist(num_nets, kNegInf);
    std::vector<std::uint32_t> cone_nets;
    std::vector<CellId> cone_cells;
    std::size_t budget = 64 * lev.comb_order.size() + 1024;
    const auto walk_pin = [&](NetId pin, std::vector<Edge>& out) {
      cone_nets.clear();
      cone_cells.clear();
      cone_nets.push_back(pin.value());
      dist[pin.value()] = 0;
      for (std::size_t head = 0; head < cone_nets.size(); ++head) {
        const NetId x{cone_nets[head]};
        if (pi_net[x.value()] || reg_index[x.value()] >= 0) continue;
        const CellId drv = netlist.net(x).driver;
        if (!drv.valid()) continue;
        const Cell& cell = netlist.cell(drv);
        if (!propagated(cell)) continue;  // clock network / dead ends
        cone_cells.push_back(drv);
        for (const NetId in : cell.ins) {
          if (dist[in.value()] <= kNegInf) {
            dist[in.value()] = kNegInf / 2;  // discovered, not yet relaxed
            cone_nets.push_back(in.value());
          }
        }
      }
      if (cone_cells.size() > budget) {
        budget = 0;
        return false;
      }
      budget -= cone_cells.size();
      std::sort(cone_cells.begin(), cone_cells.end(),
                [&](CellId a, CellId b) {
                  return lev.level[a.value()] > lev.level[b.value()];
                });
      for (const CellId id : cone_cells) {
        const Cell& cell = netlist.cell(id);
        const double d = dist[cell.out.value()];
        if (d <= kNegInf / 2) continue;  // unreachable corner of the cone
        for (const NetId in : cell.ins) {
          dist[in.value()] =
              std::max(dist[in.value()], d + delay_max[id.value()]);
        }
      }
      for (const std::uint32_t x : cone_nets) {
        const double d = dist[x];
        if (d > kNegInf / 2) {
          if (pi_net[x]) {
            out.push_back(Edge{-1, d, x == pin.value()});
          } else if (reg_index[x] >= 0) {
            out.push_back(Edge{reg_index[x], d, x == pin.value()});
          }
        }
        dist[x] = kNegInf;
      }
      return true;
    };

    edges_.resize(registers_.size());
    for (std::size_t i = 0; i < registers_.size() && enabled_; ++i) {
      const Cell& cell = netlist.cell(registers_[i]);
      for (std::size_t pin = 0; pin < cell.ins.size(); ++pin) {
        if (static_cast<int>(pin) == clock_pin(cell.kind)) continue;
        if (!walk_pin(cell.ins[pin], edges_[i])) {
          enabled_ = false;
          break;
        }
      }
    }
    if (options.output_setup_ps >= 0 && enabled_) {
      for (const CellId po : netlist.outputs()) {
        if (!netlist.cell(po).alive) continue;
        po_edges_.emplace_back();
        if (!walk_pin(netlist.cell(po).ins[0], po_edges_.back())) {
          enabled_ = false;
          break;
        }
      }
    }
  }

  /// Decide the probe for `scaled` (same structure, rescaled clocks):
  /// +1 provably feasible, -1 provably infeasible, 0 run the engine.
  [[nodiscard]] int decide(const Netlist& scaled) const {
    if (!enabled_) return 0;
    const double period = static_cast<double>(scaled.clocks().period_ps);
    const std::size_t num_regs = registers_.size();
    std::vector<TransparencyWindow> win(reps_.size());
    for (std::size_t g = 0; g < reps_.size(); ++g) {
      win[g] = register_window(scaled, scaled.cell(reps_[g]));
    }
    const auto launch_close = [&](const Edge& e) {
      return e.src < 0
                 ? 0.0
                 : win[reg_group_[registers_[static_cast<std::size_t>(e.src)]
                                      .value()]]
                       .f;
    };

    // The engine's departure fixpoint, condensed onto the register graph.
    std::vector<double> row(num_regs, kNegInf);
    std::vector<double> row_prev(num_regs, kNegInf);
    std::vector<double> valid(num_regs, kNegInf);
    bool changed = true;
    int iterations = 0;
    while (changed && iterations < options_.max_iterations) {
      ++iterations;
      changed = false;
      row_prev = row;
      for (std::size_t i = 0; i < num_regs; ++i) {
        const Cell& cell = scaled.cell(registers_[i]);
        const TransparencyWindow& w =
            win[reg_group_[registers_[i].value()]];
        const double shift_ref =
            cell.kind == CellKind::kLatchP ? w.r : w.f;
        double arrival = kNegInf;
        for (const Edge& e : edges_[i]) {
          const double base =
              e.src < 0 ? options_.input_delay_ps
                        : (e.direct ? row[static_cast<std::size_t>(e.src)]
                                    : row_prev[static_cast<std::size_t>(
                                          e.src)]);
          if (base <= kNegInf) continue;
          arrival = std::max(
              arrival, (base + e.weight) -
                           period * cycle_shift(launch_close(e), shift_ref));
        }
        const double v =
            std::max(w.r, std::min(arrival, w.f)) + delay_reg_[i];
        const double delta = v - valid[i];
        if (delta > kAmbiguousLo && delta < kAmbiguousHi) {
          return 0;  // engine's 1e-9 compare could round the other way
        }
        if (delta > 1e-9) {
          valid[i] = v;
          if (v > row[i]) {
            row[i] = v;
            changed = true;
          }
        }
      }
    }
    if (changed) return -1;  // engine would time out unconverged: fails

    bool decisive = true;  // every slack so far clears the margin
    for (std::size_t i = 0; i < num_regs; ++i) {
      const Cell& cell = scaled.cell(registers_[i]);
      const TransparencyWindow& w = win[reg_group_[registers_[i].value()]];
      const CellParams& p = library_.params(cell.kind);
      const double shift_ref = cell.kind == CellKind::kLatchP ? w.r : w.f;
      for (const Edge& e : edges_[i]) {
        const double base =
            e.src < 0 ? options_.input_delay_ps
                      : row[static_cast<std::size_t>(e.src)];
        if (base <= kNegInf) continue;
        const double lf = launch_close(e);
        const double lr =
            e.src < 0
                ? 0.0
                : win[reg_group_[registers_[static_cast<std::size_t>(e.src)]
                                     .value()]]
                      .r;
        // Same transparent-chain skip rule the engine applies per class.
        if (lr == w.r && lf == w.f && w.f > w.r &&
            cell.kind != CellKind::kLatchP) {
          continue;
        }
        const int k = cycle_shift(lf, shift_ref);
        const double slack =
            (w.f - p.setup_ps) - ((base + e.weight) - period * k);
        if (slack < -kOracleMargin) return -1;
        if (slack < kOracleMargin) decisive = false;
      }
    }
    if (options_.output_setup_ps >= 0) {
      for (const std::vector<Edge>& edges : po_edges_) {
        for (const Edge& e : edges) {
          const double base =
              e.src < 0 ? options_.input_delay_ps
                        : row[static_cast<std::size_t>(e.src)];
          if (base <= kNegInf) continue;
          const double slack =
              (period - options_.output_setup_ps) - (base + e.weight);
          if (slack < -kOracleMargin) return -1;
          if (slack < kOracleMargin) decisive = false;
        }
      }
    }
    return decisive ? 1 : 0;
  }

 private:
  struct Edge {
    std::int32_t src;  // registers_ index, or -1 for primary inputs
    double weight;     // max combinational path delay source -> pin
    bool direct;       // source output IS the pin net (no comb between)
  };

  const CellLibrary& library_;
  const TimingOptions& options_;
  bool enabled_ = true;
  std::vector<CellId> registers_;
  std::vector<double> delay_reg_;       // clk->q max, by registers_ index
  std::vector<CellId> reps_;            // one representative per group
  std::vector<std::size_t> reg_group_;  // cell id -> group index
  std::vector<std::vector<Edge>> edges_;     // by capturing registers_ index
  std::vector<std::vector<Edge>> po_edges_;  // by live primary output
};

}  // namespace

MinPeriodResult find_min_period(const Netlist& netlist,
                                const CellLibrary& library,
                                std::int64_t lo_ps, std::int64_t hi_ps,
                                std::int64_t step_ps,
                                const TimingOptions& options) {
  // Scale all waveforms proportionally to a candidate period. The netlist
  // is copied once; only its clock spec is rewritten per probe, so one
  // engine reuses the levelization / register list / net loads across the
  // whole binary search (launch classes rebuild per probe: scaling can
  // merge distinct windows).
  Netlist scaled = netlist;
  const ClockSpec original = netlist.clocks();
  require(original.period_ps > 0, "find_min_period: no clock spec");
  MinPeriodResult result;
  const MinPeriodOracle oracle(netlist, library, options);
  SmoEngine engine(library, options, /*track_borrow=*/false);
  bool engine_ran = false;
  const auto passes = [&](std::int64_t period) {
    ClockSpec spec = original;
    spec.period_ps = period;
    for (PhaseWaveform& w : spec.phases) {
      w.rise_ps = w.rise_ps * period / original.period_ps;
      w.fall_ps = w.fall_ps * period / original.period_ps;
    }
    scaled.clocks() = spec;
    ++result.probes;
    // Most probes resolve on the precomputed distance rows; the engine
    // only runs when borrowing (or an ulp-tight slack) makes the lower
    // bound inconclusive.
    const int fast = oracle.decide(scaled);
    if (fast != 0) {
      ++result.fast_probes;
      return fast > 0;
    }
    engine.run_full(scaled, /*setup_only=*/true,
                    /*reuse_structure=*/engine_ran);
    engine_ran = true;
    return engine.report().converged && engine.report().setup_ok;
  };
  if (!passes(hi_ps)) {
    result.feasible = false;
    result.period_ps = hi_ps;
    return result;
  }
  while (hi_ps - lo_ps > step_ps) {
    const std::int64_t mid = (lo_ps + hi_ps) / 2;
    if (passes(mid)) {
      hi_ps = mid;
    } else {
      lo_ps = mid;
    }
  }
  result.feasible = true;
  result.period_ps = hi_ps;
  return result;
}

std::string timing_identity(const TimingReport& report) {
  std::string out;
  out += report.converged ? "c1|" : "c0|";
  out += report.setup_ok ? "s1|" : "s0|";
  out += report.hold_ok ? "h1|" : "h0|";
  append_hex(out, report.worst_setup_slack_ps);
  out += '|';
  append_hex(out, report.worst_hold_slack_ps);
  out += '|';
  out += report.worst_setup_point;
  out += '|';
  out += report.worst_hold_point;
  return out;
}

std::string borrow_identity(const std::vector<BorrowRecord>& records) {
  std::string out;
  for (const BorrowRecord& rec : records) {
    out += cat(rec.cell.value());
    out += ',';
    append_hex(out, rec.open_ps);
    out += ',';
    append_hex(out, rec.close_ps);
    out += ',';
    append_hex(out, rec.arrival_ps);
    out += ',';
    append_hex(out, rec.borrow_ps);
    out += ',';
    if (rec.upstream.valid()) {
      out += cat(rec.upstream.value());
    } else {
      out += '-';
    }
    out += rec.has_arrival ? ",1\n" : ",0\n";
  }
  return out;
}

}  // namespace tp
