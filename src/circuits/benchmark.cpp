#include "src/circuits/benchmark.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <optional>

#include "src/netlist/hash.hpp"
#include "src/util/strcat.hpp"

namespace tp::circuits {
namespace {

struct Entry {
  const char* name;
  const char* suite;
  std::int64_t period_ps;
  const char* workload;
};

// Table I/II order; frequencies per Sec. V (ISCAS 1 GHz, CEP and Plasma
// 500 MHz, RISC-V and ARM-M0 333.3 MHz).
constexpr Entry kEntries[] = {
    {"s1196", "ISCAS", 1000, "pseudo-random"},
    {"s1238", "ISCAS", 1000, "pseudo-random"},
    {"s1423", "ISCAS", 1000, "pseudo-random"},
    {"s1488", "ISCAS", 1000, "pseudo-random"},
    {"s5378", "ISCAS", 1000, "pseudo-random"},
    {"s9234", "ISCAS", 1000, "pseudo-random"},
    {"s13207", "ISCAS", 1000, "pseudo-random"},
    {"s15850", "ISCAS", 1000, "pseudo-random"},
    {"s35932", "ISCAS", 1000, "pseudo-random"},
    {"s38417", "ISCAS", 1000, "pseudo-random"},
    {"s38584", "ISCAS", 1000, "pseudo-random"},
    {"AES", "CEP", 2000, "self-check"},
    {"DES3", "CEP", 2000, "self-check"},
    {"SHA256", "CEP", 2000, "self-check"},
    {"MD5", "CEP", 2000, "self-check"},
    {"Plasma", "CPU", 2000, "pi"},
    {"RISCV", "CPU", 3000, "rv32ui-v-simple"},
    {"ArmM0", "CPU", 3000, "hello world"},
};

const Entry& find_entry(const std::string& name) {
  const auto it =
      std::find_if(std::begin(kEntries), std::end(kEntries),
                   [&](const Entry& e) { return name == e.name; });
  require(it != std::end(kEntries), cat("unknown benchmark ", name));
  return *it;
}

}  // namespace

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Entry& e : kEntries) v.emplace_back(e.name);
    return v;
  }();
  return names;
}

Benchmark make_benchmark(const std::string& name) {
  const Entry& entry = find_entry(name);
  Benchmark benchmark{.name = entry.name,
                      .suite = entry.suite,
                      .netlist = Netlist(entry.name),
                      .period_ps = entry.period_ps,
                      .paper_workload = entry.workload};
  if (benchmark.suite == "ISCAS") {
    benchmark.netlist = make_iscas(name, entry.period_ps);
  } else if (benchmark.suite == "CEP") {
    benchmark.netlist = make_cep(name, entry.period_ps);
  } else {
    benchmark.netlist = make_cpu(name, entry.period_ps);
  }
  return benchmark;
}

const StoredBenchmark& stored_benchmark(const std::string& name) {
  struct Slot {
    std::once_flag built;
    std::optional<StoredBenchmark> stored;
  };
  static Slot slots[std::size(kEntries)];
  Slot& slot = slots[&find_entry(name) - kEntries];
  std::call_once(slot.built, [&] {
    Benchmark benchmark = make_benchmark(name);
    const std::uint64_t hash = netlist_hash(benchmark.netlist);
    slot.stored.emplace(StoredBenchmark{std::move(benchmark), hash});
  });
  return *slot.stored;
}

}  // namespace tp::circuits
