// Structural building blocks shared by the benchmark generators: buses,
// register banks (with and without enables), ripple adders, decoders,
// muxes, XOR mixing layers, and random logic clouds.
//
// Everything is deterministic for a given Rng so each named benchmark is
// bit-identical across runs.
#pragma once

#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/util/rng.hpp"

namespace tp::circuits {

using Bus = std::vector<NetId>;

class Builder {
 public:
  Builder(Netlist& netlist, NetId clk, Rng& rng)
      : nl_(netlist), clk_(clk), rng_(rng) {}

  [[nodiscard]] Netlist& netlist() { return nl_; }
  [[nodiscard]] NetId clk() const { return clk_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// `width` primary inputs named prefix0..prefixN.
  Bus inputs(const std::string& prefix, int width);

  /// Primary outputs for every net of the bus.
  void outputs(const std::string& prefix, const Bus& bus);

  NetId constant(bool value);

  /// Plain FF bank: q[i] <- d[i] each cycle.
  Bus ff_bank(const std::string& prefix, const Bus& d);

  /// Enabled FF bank (kDffEn, lowered later by clock-gating inference).
  Bus ff_bank_en(const std::string& prefix, const Bus& d, NetId enable);

  NetId gate(CellKind kind, const std::string& name, PinList ins);

  /// Bitwise ops over equal-width buses.
  Bus bitwise(CellKind kind2, const std::string& prefix, const Bus& a,
              const Bus& b);
  Bus invert(const std::string& prefix, const Bus& a);

  /// 2:1 bus mux: sel ? b : a.
  Bus mux(const std::string& prefix, const Bus& a, const Bus& b, NetId sel);

  /// Ripple-carry adder (sum only), realistic carry chain depth.
  Bus adder(const std::string& prefix, const Bus& a, const Bus& b);

  /// Increment by a constant small value (PC + 4 style): half-adder chain.
  Bus incrementer(const std::string& prefix, const Bus& a);

  /// One-hot decoder over `bits` address nets (2^bits outputs, AND trees).
  Bus decoder(const std::string& prefix, const Bus& addr);

  /// XOR-reduce a bus to one net (balanced tree).
  NetId xor_reduce(const std::string& prefix, const Bus& a);

  /// Substitution-style mixing layer: every output bit is a random 2-3
  /// input gate over a shuffled window of the input bus (crypto datapaths).
  Bus mix_layer(const std::string& prefix, const Bus& a, int fanin_window = 6);

  /// Random combinational cloud: `num_gates` gates over `sources`, returns
  /// the last `outputs` produced nets. Logic depth is bounded by
  /// `max_depth` so generated circuits meet their target period.
  Bus random_cloud(const std::string& prefix, const Bus& sources,
                   int num_gates, int outputs, int max_depth = 10);

  /// Rotate-left of a bus (pure wiring).
  static Bus rotate(const Bus& a, int amount);

 private:
  Netlist& nl_;
  NetId clk_;
  Rng& rng_;
};

}  // namespace tp::circuits
