#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-percentile among n samples. The small
/// epsilon keeps q * n that is integral in exact arithmetic (0.99 * 1000)
/// from rounding up a rank.
std::size_t nearest_rank(std::size_t n, double q) {
  if (q <= 0.0 || q > 1.0) throw std::invalid_argument("percentile q must be in (0, 1]");
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinSamplesBeyond;
}

double Tally::ok_rate() const {
  if (attempted == 0) return 1.0;
  return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
}

std::vector<std::string> service_run_problems(const ServiceRunFacts& facts,
                                              const ValidityLimits& limits) {
  std::vector<std::string> problems;
  if (!percentile_supported(facts.open_loop_samples, 0.99)) {
    problems.push_back("only " + std::to_string(facts.open_loop_samples) +
                       " open-loop samples; p99 needs 1000");
  }
  if (facts.cold_cached != 0) {
    problems.push_back(std::to_string(facts.cold_cached) +
                       " cold requests came back cached:true");
  }
  if (facts.warm_missed != 0) {
    problems.push_back(std::to_string(facts.warm_missed) +
                       " warm requests came back cached:false after priming");
  }
  if (!(facts.send_lag_ms_p99 <= limits.max_send_lag_ms_p99)) {
    problems.push_back("generator send lag p99 " + std::to_string(facts.send_lag_ms_p99) +
                       " ms exceeds " + std::to_string(limits.max_send_lag_ms_p99) + " ms");
  }
  if (!(facts.cpu_util <= limits.max_cpu_util)) {
    problems.push_back("load process CPU share " + std::to_string(facts.cpu_util) +
                       " exceeds " + std::to_string(limits.max_cpu_util) +
                       ": the client, not the service, may be the bottleneck");
  }
  return problems;
}

std::string build_problem(const std::string& build_type, const std::string& flags) {
  if (flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer build (flags: " + flags + ")";
  }
  if (build_type != "Release") return "non-Release build (" + build_type + ")";
  return {};
}

}  // namespace perfbench
