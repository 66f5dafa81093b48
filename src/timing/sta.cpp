#include "src/timing/sta.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "src/netlist/traverse.hpp"
#include "src/timing/incremental.hpp"
#include "src/timing/report.hpp"
#include "src/util/strcat.hpp"

// The SMO arrival fixpoint itself lives in src/timing/incremental.cpp
// (SmoEngine): one engine backs the fresh entry points here, the
// IncrementalTimer session, and find_min_period()'s probe reuse.

namespace tp {

TimingReport check_timing(const Netlist& netlist, const CellLibrary& library,
                          const TimingOptions& options) {
  SmoEngine engine(library, options, /*track_borrow=*/false);
  engine.run_full(netlist);
  return engine.report();
}

MinDelayProfile min_delay_profile(const Netlist& netlist,
                                  const CellLibrary& library,
                                  const TimingOptions& options) {
  MinDelayProfile prof;
  const Levelization lev = levelize(netlist);
  const std::vector<CellId> registers = netlist.registers();

  std::vector<TransparencyWindow> windows(netlist.num_cells());
  std::vector<std::pair<double, double>> classes{{0.0, 0.0}};
  for (const CellId id : registers) {
    windows[id.value()] = register_window(netlist, netlist.cell(id));
    classes.push_back({windows[id.value()].r, windows[id.value()].f});
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  const std::size_t num_classes = classes.size();
  auto class_of = [&](const TransparencyWindow& w) {
    return static_cast<std::size_t>(
        std::lower_bound(classes.begin(), classes.end(),
                         std::make_pair(w.r, w.f)) -
        classes.begin());
  };

  prof.classes.reserve(num_classes);
  for (const auto& [open, close] : classes) {
    prof.classes.push_back({open, close});
  }
  prof.pi_class = class_of(TransparencyWindow{0.0, 0.0});
  const std::size_t num_nets = netlist.num_nets();
  prof.arrival_ps.assign(
      num_classes,
      std::vector<double>(num_nets, MinDelayProfile::kUnreachable));
  prof.pred.assign(num_classes, std::vector<NetId>(num_nets));
  prof.launch.assign(num_classes, std::vector<CellId>(num_nets));

  for (const CellId pi : netlist.data_inputs()) {
    const NetId net = netlist.cell(pi).out;
    prof.arrival_ps[prof.pi_class][net.value()] = options.input_delay_ps;
  }
  for (const CellId id : registers) {
    const Cell& cell = netlist.cell(id);
    const TransparencyWindow& w = windows[id.value()];
    const std::size_t c = class_of(w);
    const double depart = w.r + library.params(cell.kind).intrinsic_ps;
    if (depart < prof.arrival_ps[c][cell.out.value()]) {
      prof.arrival_ps[c][cell.out.value()] = depart;
      prof.launch[c][cell.out.value()] = id;
    }
  }
  // One topological pass: min seeds are fixed (data cannot leave a register
  // before its window opens), so no fixpoint is needed.
  for (const CellId id : lev.comb_order) {
    const Cell& cell = netlist.cell(id);
    if (is_clock_cell(cell.kind) || !cell.out.valid()) continue;
    const double delay = library.params(cell.kind).intrinsic_ps;
    for (std::size_t c = 0; c < num_classes; ++c) {
      double best = MinDelayProfile::kUnreachable;
      NetId best_in;
      for (const NetId in : cell.ins) {
        const double a = prof.arrival_ps[c][in.value()];
        if (a < best) {
          best = a;
          best_in = in;
        }
      }
      if (best >= MinDelayProfile::kUnreachable) continue;
      const std::uint32_t out = cell.out.value();
      if (best + delay < prof.arrival_ps[c][out]) {
        prof.arrival_ps[c][out] = best + delay;
        prof.pred[c][out] = best_in;
        prof.launch[c][out] = prof.launch[c][best_in.value()];
      }
    }
  }
  return prof;
}

std::vector<BorrowRecord> borrow_profile(const Netlist& netlist,
                                         const CellLibrary& library,
                                         const TimingOptions& options) {
  SmoEngine engine(library, options, /*track_borrow=*/true);
  engine.run_full(netlist);
  return engine.borrow_records(netlist);
}

TimingProfile profile_timing(const Netlist& netlist,
                             const CellLibrary& library,
                             const TimingOptions& options,
                             double bin_width_ps) {
  SmoEngine engine(library, options, /*track_borrow=*/false);
  engine.run_full(netlist);
  TimingProfile profile;
  std::unordered_map<std::uint32_t, double> hold_of;
  for (const auto& [cell, slack] : engine.hold_rows()) {
    const auto it = hold_of.find(cell.value());
    if (it == hold_of.end() || slack < it->second) {
      hold_of[cell.value()] = slack;
    }
  }
  for (const auto& [cell, slack] : engine.setup_rows()) {
    EndpointSlack e;
    e.cell = cell;
    e.name = netlist.cell(cell).name;
    e.phase = netlist.cell(cell).phase;
    e.setup_slack_ps = slack;
    const auto it = hold_of.find(cell.value());
    e.hold_slack_ps = it == hold_of.end() ? 0 : it->second;
    profile.endpoints.push_back(std::move(e));
    if (slack < 0) {
      ++profile.failing_endpoints;
      profile.total_negative_slack_ps += -slack;
    }
  }
  std::sort(profile.endpoints.begin(), profile.endpoints.end(),
            [](const EndpointSlack& a, const EndpointSlack& b) {
              return a.setup_slack_ps < b.setup_slack_ps;
            });
  // Histogram over setup slack.
  profile.histogram.bin_width_ps = bin_width_ps;
  if (!profile.endpoints.empty()) {
    const double lo = profile.endpoints.front().setup_slack_ps;
    const double hi = profile.endpoints.back().setup_slack_ps;
    profile.histogram.min_slack_ps =
        std::floor(lo / bin_width_ps) * bin_width_ps;
    const int bins = std::max(
        1, static_cast<int>((hi - profile.histogram.min_slack_ps) /
                            bin_width_ps) +
               1);
    profile.histogram.counts.assign(static_cast<std::size_t>(bins), 0);
    for (const EndpointSlack& e : profile.endpoints) {
      const int bin = static_cast<int>(
          (e.setup_slack_ps - profile.histogram.min_slack_ps) /
          bin_width_ps);
      ++profile.histogram.counts[static_cast<std::size_t>(
          std::clamp(bin, 0, bins - 1))];
    }
  }
  return profile;
}

HoldRepairResult repair_hold(Netlist& netlist, const CellLibrary& library,
                             const TimingOptions& options, int max_passes,
                             IncrementalTimer* timer) {
  HoldRepairResult result;
  const double buf_delay =
      library.delay_ps(CellKind::kBuf,
                       library.params(CellKind::kDff).input_cap_ff +
                           library.default_wire_cap_per_fanout_ff());
  std::optional<IncrementalTimer> local;
  if (timer == nullptr) timer = &local.emplace(library, options);
  for (int pass = 0; pass < max_passes; ++pass) {
    timer->sync(netlist);
    ++result.passes;
    bool any = false;
    for (const auto& [reg, slack] : timer->hold_rows()) {
      if (slack >= 0) continue;
      any = true;
      const int needed = static_cast<int>(std::ceil(-slack / buf_delay));
      // Copy before mutating: add_gate may reallocate the cell table.
      const std::string reg_name = netlist.cell(reg).name;
      NetId d = netlist.cell(reg).ins[0];
      for (int b = 0; b < needed; ++b) {
        const CellId buf = netlist.add_gate(
            CellKind::kBuf,
            cat(reg_name, "_holdbuf", pass, "_", b), {d});
        d = netlist.cell(buf).out;
        ++result.buffers_inserted;
      }
      netlist.replace_input(reg, 0, d);
    }
    if (!any) break;
  }
  return result;
}

}  // namespace tp
