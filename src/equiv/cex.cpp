#include "src/equiv/cex.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "src/util/log.hpp"

namespace tp::equiv {

std::size_t Counterexample::ones() const {
  std::size_t n = 0;
  for (const auto& cycle_bits : inputs) {
    for (const std::uint8_t b : cycle_bits) n += b != 0;
  }
  return n;
}

std::string Counterexample::to_string() const {
  std::ostringstream out;
  if (cycle < 0) {
    out << "no mismatch";
    return out.str();
  }
  out << "cycle " << cycle << " output '" << output_name << "' expected "
      << int{expected} << " got " << int{got} << " ("
      << (confirmed ? "simulator-confirmed" : "UNCONFIRMED") << ", "
      << inputs.size() << " cycles, " << ones() << " set bits)";
  return out.str();
}

std::vector<std::size_t> map_data_inputs(const Netlist& from,
                                         const Netlist& to) {
  const std::vector<CellId> from_pis = from.data_inputs();
  const std::vector<CellId> to_pis = to.data_inputs();
  require(from_pis.size() == to_pis.size(),
          "equiv: netlists have different data-input counts");
  std::unordered_map<std::string_view, std::size_t> by_name;
  for (std::size_t i = 0; i < from_pis.size(); ++i) {
    by_name.emplace(from.cell(from_pis[i]).name, i);
  }
  std::vector<std::size_t> map(to_pis.size());
  bool names_match = by_name.size() == from_pis.size();
  for (std::size_t j = 0; names_match && j < to_pis.size(); ++j) {
    const auto it = by_name.find(to.cell(to_pis[j]).name);
    if (it == by_name.end()) {
      names_match = false;
    } else {
      map[j] = it->second;
    }
  }
  if (!names_match) {  // positional fallback
    for (std::size_t j = 0; j < map.size(); ++j) map[j] = j;
  }
  return map;
}

OutputStream simulate_outputs(const Netlist& netlist,
                              const Stimulus& stimulus) {
  SimOptions options;
  options.snapshot_event = netlist.clocks().phases.size() == 3 ? 1 : 0;
  WideSimulator sim(netlist, 1, options);  // constructor runs reset()
  const WideStimulus packed = pack_stimulus({&stimulus, 1});
  OutputStream stream;
  stream.reserve(stimulus.size());
  for (const auto& pi_words : packed.words) {
    sim.step(pi_words);
    std::vector<std::uint8_t>& row = stream.emplace_back();
    for (const std::uint64_t word : sim.outputs()) row.push_back(word & 1u);
  }
  return stream;
}

namespace {

/// Remaps a golden-ordered stimulus into `to`-order using `map` (from
/// map_data_inputs(golden, to)).
Stimulus remap_stimulus(const Stimulus& stimulus,
                        const std::vector<std::size_t>& map) {
  Stimulus out(stimulus.size());
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    out[c].resize(map.size());
    for (std::size_t j = 0; j < map.size(); ++j) {
      out[c][j] = stimulus[c][map[j]];
    }
  }
  return out;
}

/// True when the given golden-ordered stimulus makes the two netlists
/// disagree on any cycle/output.
bool mismatches(const Netlist& golden, const Netlist& revised,
                const std::vector<std::size_t>& map, const Stimulus& inputs) {
  const OutputStream a = simulate_outputs(golden, inputs);
  const OutputStream b = simulate_outputs(revised, remap_stimulus(inputs, map));
  return first_mismatch(a, b) >= 0;
}

}  // namespace

bool replay(const Netlist& golden, const Netlist& revised,
            Counterexample& cex) {
  const std::vector<std::size_t> map = map_data_inputs(golden, revised);
  const OutputStream a = simulate_outputs(golden, cex.inputs);
  const OutputStream b =
      simulate_outputs(revised, remap_stimulus(cex.inputs, map));
  const std::ptrdiff_t cycle = first_mismatch(a, b);
  cex.cycle = cycle;
  cex.confirmed = cycle >= 0;
  if (cycle < 0) return false;
  for (std::size_t k = 0; k < a[cycle].size(); ++k) {
    if (a[cycle][k] != b[cycle][k]) {
      cex.output = k;
      cex.output_name = golden.cell(golden.outputs()[k]).name;
      cex.expected = a[cycle][k] != 0;
      cex.got = b[cycle][k] != 0;
      break;
    }
  }
  return true;
}

void minimize(const Netlist& golden, const Netlist& revised,
              Counterexample& cex) {
  if (!cex.confirmed || cex.cycle < 0) return;
  const std::vector<std::size_t> map = map_data_inputs(golden, revised);
  cex.inputs.resize(cex.cycle + 1);

  const std::size_t num_pis = cex.inputs.empty() ? 0 : cex.inputs[0].size();
  // Flattened positions of the set bits: candidates for clearing.
  std::vector<std::size_t> ones;
  for (std::size_t c = 0; c < cex.inputs.size(); ++c) {
    for (std::size_t i = 0; i < num_pis; ++i) {
      if (cex.inputs[c][i]) ones.push_back(c * num_pis + i);
    }
  }
  const auto build = [&](const std::vector<std::size_t>& keep) {
    Stimulus s(cex.inputs.size(), std::vector<std::uint8_t>(num_pis, 0));
    for (const std::size_t pos : keep) s[pos / num_pis][pos % num_pis] = 1;
    return s;
  };

  // Classic ddmin over the set-bit positions: try dropping ever finer chunks
  // while the mismatch survives.
  std::size_t granularity = 2;
  while (ones.size() >= 2) {
    const std::size_t chunk =
        std::max<std::size_t>(1, (ones.size() + granularity - 1) / granularity);
    bool reduced = false;
    for (std::size_t begin = 0; begin < ones.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, ones.size());
      std::vector<std::size_t> complement;
      complement.reserve(ones.size() - (end - begin));
      complement.insert(complement.end(), ones.begin(), ones.begin() + begin);
      complement.insert(complement.end(), ones.begin() + end, ones.end());
      if (mismatches(golden, revised, map, build(complement))) {
        ones = std::move(complement);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (reduced) continue;
    if (chunk == 1) break;
    granularity = std::min(ones.size(), granularity * 2);
  }
  if (ones.size() == 1 &&
      mismatches(golden, revised, map, build({}))) {
    ones.clear();  // even the all-zero stimulus exposes the fault
  }
  cex.inputs = build(ones);

  // The mismatch may have moved to an earlier cycle/output under the smaller
  // stimulus; refresh the report and re-truncate.
  replay(golden, revised, cex);
  if (cex.cycle >= 0) cex.inputs.resize(cex.cycle + 1);
}

}  // namespace tp::equiv
