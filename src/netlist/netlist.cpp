#include "src/netlist/netlist.hpp"

#include "src/util/strcat.hpp"

namespace tp {

std::string_view phase_name(Phase phase) {
  switch (phase) {
    case Phase::kNone: return "-";
    case Phase::kClk: return "clk";
    case Phase::kClkBar: return "clkbar";
    case Phase::kP1: return "p1";
    case Phase::kP2: return "p2";
    case Phase::kP3: return "p3";
  }
  return "?";
}

const PhaseWaveform* ClockSpec::find(Phase phase) const {
  for (const auto& w : phases) {
    if (w.phase == phase) return &w;
  }
  return nullptr;
}

NetId ClockSpec::root(Phase phase) const {
  const PhaseWaveform* w = find(phase);
  require(w != nullptr, "ClockSpec::root: phase not present");
  return w->root;
}

ClockSpec single_phase_spec(std::int64_t period_ps, NetId clk_root) {
  ClockSpec spec;
  spec.period_ps = period_ps;
  spec.phases.push_back({Phase::kClk, clk_root, 0, period_ps / 2});
  return spec;
}

ClockSpec two_phase_spec(std::int64_t period_ps, NetId clk_root,
                         NetId clkbar_root) {
  ClockSpec spec;
  spec.period_ps = period_ps;
  spec.phases.push_back({Phase::kClk, clk_root, 0, period_ps / 2});
  spec.phases.push_back({Phase::kClkBar, clkbar_root, period_ps / 2,
                         period_ps});
  return spec;
}

ClockSpec three_phase_spec(std::int64_t period_ps, NetId p1_root,
                           NetId p2_root, NetId p3_root) {
  ClockSpec spec;
  spec.period_ps = period_ps;
  const std::int64_t third = period_ps / 3;
  spec.phases.push_back({Phase::kP1, p1_root, 0, third});
  spec.phases.push_back({Phase::kP2, p2_root, third, 2 * third});
  spec.phases.push_back({Phase::kP3, p3_root, 2 * third, period_ps});
  return spec;
}

NetId Netlist::add_net(std::string name) {
  const NetId id{static_cast<std::uint32_t>(nets_.size())};
  Net net;
  net.name = std::move(name);
  nets_.push_back(std::move(net));
  ++edits_;
  return id;
}

CellId Netlist::add_cell(CellKind kind, std::string name, PinList ins,
                         NetId out, Phase phase) {
  require(static_cast<int>(ins.size()) == num_inputs(kind),
          cat("add_cell ", name, ": wrong input count"));
  require(has_output(kind) == out.valid(),
          cat("add_cell ", name, ": output net mismatch"));

  const CellId id{static_cast<std::uint32_t>(cells_.size())};
  Cell cell;
  cell.kind = kind;
  cell.name = std::move(name);
  cell.ins = ins;
  cell.out = out;
  cell.phase = phase;
  for (std::uint32_t pin = 0; pin < cell.ins.size(); ++pin) {
    require(cell.ins[pin].valid(), "add_cell: invalid input net");
    nets_[cell.ins[pin].value()].fanouts.push_back({id, pin});
  }
  if (out.valid()) {
    Net& net = nets_[out.value()];
    require(!net.driver.valid(),
            cat("add_cell: net ", net.name, " already driven"));
    net.driver = id;
    if (is_clock_cell(kind)) net.is_clock = true;
  }
  cells_.push_back(std::move(cell));
  ++edits_;
  return id;
}

CellId Netlist::add_gate(CellKind kind, std::string name, PinList ins,
                         Phase phase) {
  const NetId out = add_net(name);
  return add_cell(kind, std::move(name), ins, out, phase);
}

CellId Netlist::add_input(std::string name) {
  const NetId out = add_net(name);
  const CellId id = add_cell(CellKind::kInput, std::move(name), {}, out);
  inputs_.push_back(id);
  return id;
}

CellId Netlist::add_output(std::string name, NetId src) {
  const CellId id =
      add_cell(CellKind::kOutput, std::move(name), {src}, NetId{});
  outputs_.push_back(id);
  return id;
}

void Netlist::replace_input(CellId cell_id, std::uint32_t pin, NetId net) {
  Cell& cell = cells_[cell_id.value()];
  require(pin < cell.ins.size(), "replace_input: pin out of range");
  const NetId old = cell.ins[pin];
  if (old == net) return;
  auto& old_fanouts = nets_[old.value()].fanouts;
  std::erase(old_fanouts, PinRef{cell_id, pin});
  cell.ins[pin] = net;
  nets_[net.value()].fanouts.push_back({cell_id, pin});
  ++edits_;
}

void Netlist::transfer_fanouts(NetId from, NetId to) {
  require(from != to, "transfer_fanouts: from == to");
  // Copy first: replace_input mutates the fanout vector we iterate.
  const std::vector<PinRef> fanouts = nets_[from.value()].fanouts;
  for (const PinRef& ref : fanouts) replace_input(ref.cell, ref.pin, to);
}

void Netlist::remove_cell(CellId cell_id) {
  Cell& cell = cells_[cell_id.value()];
  require(cell.alive, "remove_cell: already dead");
  for (std::uint32_t pin = 0; pin < cell.ins.size(); ++pin) {
    std::erase(nets_[cell.ins[pin].value()].fanouts, PinRef{cell_id, pin});
  }
  cell.ins.clear();
  if (cell.out.valid()) {
    nets_[cell.out.value()].driver = CellId{};
    cell.out = NetId{};
  }
  cell.alive = false;
  reset_of_.erase(cell_id.value());
  ++edits_;
}

void Netlist::remove_net(NetId net_id) {
  Net& net = nets_[net_id.value()];
  require(net.alive, "remove_net: already dead");
  require(!net.driver.valid() && net.fanouts.empty(),
          "remove_net: net still connected");
  net.alive = false;
  ++edits_;
}

void Netlist::morph_cell(CellId cell_id, CellKind kind) {
  Cell& cell = cells_[cell_id.value()];
  require(num_inputs(kind) == static_cast<int>(cell.ins.size()),
          "morph_cell: input count mismatch");
  cell.kind = kind;
  if (cell.out.valid() && is_clock_cell(kind)) {
    nets_[cell.out.value()].is_clock = true;
  }
  ++edits_;
}

void Netlist::morph_cell(CellId cell_id, CellKind kind, PinList ins) {
  Cell& cell = cells_[cell_id.value()];
  for (std::uint32_t pin = 0; pin < cell.ins.size(); ++pin) {
    std::erase(nets_[cell.ins[pin].value()].fanouts, PinRef{cell_id, pin});
  }
  require(static_cast<int>(ins.size()) == num_inputs(kind),
          "morph_cell: wrong input count");
  cell.ins = ins;
  cell.kind = kind;
  for (std::uint32_t pin = 0; pin < cell.ins.size(); ++pin) {
    nets_[cell.ins[pin].value()].fanouts.push_back({cell_id, pin});
  }
  if (cell.out.valid() && is_clock_cell(kind)) {
    nets_[cell.out.value()].is_clock = true;
  }
  ++edits_;
}

void Netlist::set_phase(CellId cell_id, Phase phase) {
  cells_[cell_id.value()].phase = phase;
  ++edits_;
}

void Netlist::set_init(CellId cell_id, bool init) {
  cells_[cell_id.value()].init = init ? 1 : 0;
  ++edits_;
}

void Netlist::mark_clock_net(NetId net, bool is_clock) {
  nets_[net.value()].is_clock = is_clock;
  ++edits_;
}

std::vector<CellId> Netlist::data_inputs() const {
  std::vector<CellId> result;
  for (CellId id : inputs_) {
    const Cell& c = cell(id);
    if (c.alive && !nets_[c.out.value()].is_clock) result.push_back(id);
  }
  return result;
}

std::vector<CellId> Netlist::live_cells() const {
  std::vector<CellId> result;
  result.reserve(cells_.size());
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].alive) result.push_back(CellId{i});
  }
  return result;
}

std::vector<CellId> Netlist::registers() const {
  std::vector<CellId> result;
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].alive && is_register(cells_[i].kind)) {
      result.push_back(CellId{i});
    }
  }
  return result;
}

void Netlist::set_clock_root(CellId input_cell, Phase phase) {
  const Cell& c = cell(input_cell);
  require(c.kind == CellKind::kInput, "set_clock_root: not an input cell");
  nets_[c.out.value()].is_clock = true;
  cells_[input_cell.value()].phase = phase;
  ++edits_;
}

void Netlist::declare_reset_root(CellId input_cell, bool active_low,
                                 int release_order) {
  const Cell& c = cell(input_cell);
  require(c.kind == CellKind::kInput,
          "declare_reset_root: not an input cell");
  for (const ResetRoot& root : reset_roots_) {
    require(root.net != c.out, "declare_reset_root: already declared");
  }
  reset_roots_.push_back({c.out, active_low, release_order});
  ++edits_;
}

void Netlist::set_reset(CellId reg, NetId reset_net) {
  require(is_register(cell(reg).kind), "set_reset: not a register");
  reset_of_[reg.value()] = reset_net;
  ++edits_;
}

NetId Netlist::reset_of(CellId reg) const {
  const auto it = reset_of_.find(reg.value());
  return it == reset_of_.end() ? NetId{} : it->second;
}

CellId insert_latch_after(Netlist& netlist, NetId q, NetId gate_root,
                          Phase phase, const std::string& name) {
  const NetId q2 = netlist.add_net(name);
  netlist.transfer_fanouts(q, q2);
  return netlist.add_cell(CellKind::kLatchH, name, {q, gate_root}, q2,
                          phase);
}

void Netlist::validate() const {
  // A check's message is built only when the check fails.
  const auto check = [](bool ok, const auto&... parts) {
    if (!ok) throw Error(cat("validate: ", parts...));
  };
  // listed[pin_base[c] + p]: pin p of cell c is in the fanout list of the
  // net on it. One pass over the live nets marks them; a ref that names no
  // such pin is left for the net loop below to report.
  std::vector<std::size_t> pin_base(cells_.size() + 1, 0);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    pin_base[i + 1] = pin_base[i] + cells_[i].ins.size();
  }
  std::vector<std::uint8_t> listed(pin_base.back(), 0);
  for (std::uint32_t i = 0; i < nets_.size(); ++i) {
    if (!nets_[i].alive) continue;
    for (const PinRef& ref : nets_[i].fanouts) {
      if (ref.cell.value() >= cells_.size()) continue;
      const Cell& c = cells_[ref.cell.value()];
      if (ref.pin < c.ins.size() && c.ins[ref.pin] == NetId{i}) {
        listed[pin_base[ref.cell.value()] + ref.pin] = 1;
      }
    }
  }
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (!c.alive) continue;
    check(static_cast<int>(c.ins.size()) == num_inputs(c.kind), "cell ",
          c.name, " pin count");
    for (std::uint32_t pin = 0; pin < c.ins.size(); ++pin) {
      const Net& net = nets_[c.ins[pin].value()];
      check(net.alive, "cell ", c.name, " uses dead net");
      check(listed[pin_base[i] + pin] != 0, "cell ", c.name, " pin ", pin,
            " not in fanout list of net ", net.name);
    }
    if (c.out.valid()) {
      check(nets_[c.out.value()].driver == CellId{i}, "cell ", c.name,
            " output driver mismatch");
    }
  }
  for (std::uint32_t i = 0; i < nets_.size(); ++i) {
    const Net& net = nets_[i];
    if (!net.alive) continue;
    if (net.driver.valid()) {
      const Cell& d = cells_[net.driver.value()];
      check(d.alive && d.out == NetId{i}, "net ", net.name,
            " driver inconsistent");
    }
    for (const PinRef& ref : net.fanouts) {
      const Cell& c = cells_[ref.cell.value()];
      check(c.alive && ref.pin < c.ins.size() && c.ins[ref.pin] == NetId{i},
            "net ", net.name, " fanout inconsistent");
    }
  }
}

}  // namespace tp
