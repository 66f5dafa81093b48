#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) return {0, 0, 0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = len + 1, cut point i of
  // n = 4 sits at j = i*m // n, interpolated by delta = i*m - j*n quarters,
  // with j clamped to [1, len - 1].
  const long len = static_cast<long>(values.size());
  const long m = len + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, len - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4;
  }
  return out;
}

Tail tail(std::vector<double> values) {
  Tail out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    out.value = values.back();
    return out;
  }
  out.value = values[n - 11];
  out.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return out;
}

double vm_hwm_mb(std::string_view status_text) {
  constexpr std::string_view kField = "VmHWM:";
  std::size_t at = 0;
  while (at < status_text.size()) {
    std::size_t end = status_text.find('\n', at);
    if (end == std::string_view::npos) end = status_text.size();
    std::string_view line = status_text.substr(at, end - at);
    at = end + 1;
    if (line.substr(0, kField.size()) != kField) continue;
    line.remove_prefix(kField.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    long kib = 0;
    const auto [rest, ec] =
        std::from_chars(line.data(), line.data() + line.size(), kib);
    if (ec != std::errc() || rest == line.data()) return -1;
    return static_cast<double>(kib) / 1024.0;
  }
  return -1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return vm_hwm_mb(text.str());
}

}  // namespace perfbench
