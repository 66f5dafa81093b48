#include "src/circuits/builder.hpp"

#include <algorithm>

#include "src/util/strcat.hpp"

namespace tp::circuits {

Bus Builder::inputs(const std::string& prefix, int width) {
  Bus bus;
  for (int i = 0; i < width; ++i) {
    bus.push_back(nl_.cell(nl_.add_input(cat(prefix, i))).out);
  }
  return bus;
}

void Builder::outputs(const std::string& prefix, const Bus& bus) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    nl_.add_output(cat(prefix, i), bus[i]);
  }
}

NetId Builder::constant(bool value) {
  const NetId net = nl_.add_net(value ? "const1" : "const0");
  nl_.add_cell(value ? CellKind::kConst1 : CellKind::kConst0,
               nl_.net(net).name + "_" + std::to_string(net.value()), {},
               net);
  return net;
}

Bus Builder::ff_bank(const std::string& prefix, const Bus& d) {
  Bus q;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const NetId out = nl_.add_net(cat(prefix, i));
    nl_.add_cell(CellKind::kDff, cat(prefix, i), {d[i], clk_}, out,
                 Phase::kClk);
    q.push_back(out);
  }
  return q;
}

Bus Builder::ff_bank_en(const std::string& prefix, const Bus& d,
                        NetId enable) {
  Bus q;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const NetId out = nl_.add_net(cat(prefix, i));
    nl_.add_cell(CellKind::kDffEn, cat(prefix, i), {d[i], enable, clk_},
                 out, Phase::kClk);
    q.push_back(out);
  }
  return q;
}

NetId Builder::gate(CellKind kind, const std::string& name, PinList ins) {
  return nl_.cell(nl_.add_gate(kind, name, ins)).out;
}

Bus Builder::bitwise(CellKind kind2, const std::string& prefix, const Bus& a,
                     const Bus& b) {
  require(a.size() == b.size(), "bitwise: width mismatch");
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(gate(kind2, cat(prefix, i), {a[i], b[i]}));
  }
  return out;
}

Bus Builder::invert(const std::string& prefix, const Bus& a) {
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(gate(CellKind::kInv, cat(prefix, i), {a[i]}));
  }
  return out;
}

Bus Builder::mux(const std::string& prefix, const Bus& a, const Bus& b,
                 NetId sel) {
  require(a.size() == b.size(), "mux: width mismatch");
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(gate(CellKind::kMux2, cat(prefix, i), {a[i], b[i], sel}));
  }
  return out;
}

Bus Builder::adder(const std::string& prefix, const Bus& a, const Bus& b) {
  // Carry-select adder: each 8-bit block ripples twice in parallel (carry-in
  // 0 and 1); block results and carries are selected by a short mux chain.
  // This is the depth/area trade-off a synthesis tool would pick for the
  // CPU benchmarks\' cycle budgets.
  require(a.size() == b.size(), "adder: width mismatch");
  constexpr std::size_t kBlock = 8;
  Bus sum;
  NetId carry_in = constant(false);
  const NetId one = constant(true);
  for (std::size_t base = 0; base < a.size(); base += kBlock) {
    const std::size_t end = std::min(a.size(), base + kBlock);
    Bus sum0, sum1;
    NetId c0 = constant(false);
    NetId c1 = one;
    for (std::size_t i = base; i < end; ++i) {
      const NetId p = gate(CellKind::kXor2, cat(prefix, "_p", i),
                           {a[i], b[i]});
      sum0.push_back(gate(CellKind::kXor2, cat(prefix, "_s0_", i), {p, c0}));
      sum1.push_back(gate(CellKind::kXor2, cat(prefix, "_s1_", i), {p, c1}));
      c0 = gate(CellKind::kMaj3, cat(prefix, "_c0_", i), {a[i], b[i], c0});
      c1 = gate(CellKind::kMaj3, cat(prefix, "_c1_", i), {a[i], b[i], c1});
    }
    for (std::size_t i = 0; i < sum0.size(); ++i) {
      sum.push_back(gate(CellKind::kMux2, cat(prefix, base + i),
                         {sum0[i], sum1[i], carry_in}));
    }
    carry_in = gate(CellKind::kMux2, cat(prefix, "_cs", base),
                    {c0, c1, carry_in});
  }
  return sum;
}

Bus Builder::incrementer(const std::string& prefix, const Bus& a) {
  // Prefix-AND (Kogge-Stone style) incrementer: the carry into bit i is the
  // AND of all lower bits, computed by a doubling network in log depth;
  // sum_i = a_i XOR carry_i. This is the structure a real PC increment uses
  // to stay off the critical path.
  const std::size_t n = a.size();
  Bus all = a;  // all[i] becomes AND(a_0 .. a_i)
  int stage = 0;
  for (std::size_t stride = 1; stride < n; stride *= 2, ++stage) {
    Bus next = all;
    for (std::size_t i = stride; i < n; ++i) {
      next[i] = gate(CellKind::kAnd2, cat(prefix, "_ks", stage, "_", i),
                     {all[i], all[i - stride]});
    }
    all = std::move(next);
  }
  Bus sum;
  sum.push_back(gate(CellKind::kInv, cat(prefix, 0), {a[0]}));
  for (std::size_t i = 1; i < n; ++i) {
    sum.push_back(gate(CellKind::kXor2, cat(prefix, i), {a[i], all[i - 1]}));
  }
  return sum;
}

Bus Builder::decoder(const std::string& prefix, const Bus& addr) {
  Bus lines{constant(true)};
  for (std::size_t bit = 0; bit < addr.size(); ++bit) {
    const NetId nbit =
        gate(CellKind::kInv, cat(prefix, "_n", bit), {addr[bit]});
    Bus next;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      next.push_back(gate(CellKind::kAnd2,
                          cat(prefix, "_", bit, "_", 2 * i),
                          {lines[i], nbit}));
      next.push_back(gate(CellKind::kAnd2,
                          cat(prefix, "_", bit, "_", 2 * i + 1),
                          {lines[i], addr[bit]}));
    }
    lines = std::move(next);
  }
  return lines;
}

NetId Builder::xor_reduce(const std::string& prefix, const Bus& a) {
  require(!a.empty(), "xor_reduce: empty bus");
  Bus level = a;
  int stage = 0;
  while (level.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(gate(CellKind::kXor2, cat(prefix, "_", stage, "_", i),
                          {level[i], level[i + 1]}));
    }
    if (level.size() % 2) next.push_back(level.back());
    level = std::move(next);
    ++stage;
  }
  return level.front();
}

Bus Builder::mix_layer(const std::string& prefix, const Bus& a,
                       int fanin_window) {
  const CellKind kinds[] = {CellKind::kXor2,  CellKind::kXnor2,
                            CellKind::kAoi21, CellKind::kOai21,
                            CellKind::kNand2, CellKind::kMaj3};
  Bus out;
  const auto n = static_cast<int>(a.size());
  for (int i = 0; i < n; ++i) {
    const CellKind kind = kinds[rng_.below(std::size(kinds))];
    PinList ins;
    for (int p = 0; p < num_inputs(kind); ++p) {
      const int offset = static_cast<int>(rng_.below(
          static_cast<std::uint64_t>(fanin_window)));
      ins.push_back(a[static_cast<std::size_t>((i + offset) % n)]);
    }
    out.push_back(gate(kind, cat(prefix, i), ins));
  }
  return out;
}

Bus Builder::random_cloud(const std::string& prefix, const Bus& sources,
                          int num_gates, int outputs, int max_depth) {
  require(!sources.empty(), "random_cloud: no sources");
  const CellKind kinds[] = {CellKind::kAnd2, CellKind::kOr2,
                            CellKind::kNand2, CellKind::kNor2,
                            CellKind::kXor2, CellKind::kMux2,
                            CellKind::kInv, CellKind::kAoi21};
  Bus all = sources;
  std::vector<int> depth(sources.size(), 0);
  for (int g = 0; g < num_gates; ++g) {
    const CellKind kind = kinds[rng_.below(std::size(kinds))];
    PinList ins;
    int d = 0;
    for (int p = 0; p < num_inputs(kind); ++p) {
      // Bias toward recent nets for depth, but respect the depth bound by
      // re-picking shallow nets when necessary.
      const std::size_t span = std::min<std::size_t>(all.size(), 48);
      std::size_t pick =
          rng_.chance(0.7) ? all.size() - 1 - rng_.below(span)
                           : rng_.below(all.size());
      if (depth[pick] >= max_depth) pick = rng_.below(sources.size());
      ins.push_back(all[pick]);
      d = std::max(d, depth[pick]);
    }
    all.push_back(gate(kind, cat(prefix, g), ins));
    depth.push_back(d + 1);
  }
  const int take = std::min<int>(outputs, static_cast<int>(all.size()));
  return Bus(all.end() - take, all.end());
}

Bus Builder::rotate(const Bus& a, int amount) {
  Bus out(a.size());
  const auto n = static_cast<int>(a.size());
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] =
        a[static_cast<std::size_t>((i + amount) % n)];
  }
  return out;
}

}  // namespace tp::circuits
