// Sample statistics, failure accounting and run-validity rules of the
// benchmark. Pure functions with no I/O, so tests/test_stats.cpp can pin
// every rule down.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Value a failed request contributes to a latency distribution: it
/// counts as a sample above every percentile.
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// Fewest samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the smallest sample with rank >= q * n
/// (q in (0, 1]). Failures appear as kFailedSample and sort last.
/// Throws std::invalid_argument on an empty sample set.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Number of samples strictly beyond the nearest-rank q-percentile of n
/// samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// True when n samples leave at least kMinSamplesBeyond beyond the
/// q-percentile, so reporting it is allowed (p99 needs n >= 1000).
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

/// Attempted / failed tally. Failures are transport errors, service
/// errors, refusals and wrong answers alike.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // subset of failed: answers that disagree with the reference

  void ok() { ++attempted; }
  void fail() {
    ++attempted;
    ++failed;
  }
  void wrong_answer() {
    fail();
    ++wrong;
  }
  /// 1 - failed / attempted; 1 for an empty tally.
  [[nodiscard]] double ok_rate() const;
};

/// What a service run knows about its own trustworthiness.
struct ServiceRunFacts {
  std::size_t open_loop_samples = 0;  // latency samples incl. failures
  std::uint64_t cold_cached = 0;      // cold requests answered cached:true
  std::uint64_t warm_missed = 0;      // warm requests answered cached:false
  double send_lag_ms_p99 = 0.0;       // generator lateness vs. schedule, free connection
  double cpu_util = 0.0;              // load-process CPU / (wall * threads)
};

/// Limits a valid service run stays within. The send-lag limit sits well
/// above the wake-up jitter of an idle 4-vCPU VM (p99 about 6 ms for a
/// thread sleeping in 3 ms steps), so it fires when the generator falls
/// behind its schedule, not on the host's scheduling noise.
struct ValidityLimits {
  double max_send_lag_ms_p99 = 20.0;
  double max_cpu_util = 0.85;
};

/// Reasons a service run is invalid; empty when it is valid.
[[nodiscard]] std::vector<std::string> service_run_problems(const ServiceRunFacts& facts,
                                                            const ValidityLimits& limits = {});

/// Reason the build that produced the numbers must not be reported, or
/// empty when it is an optimized, uninstrumented build.
[[nodiscard]] std::string build_problem(const std::string& build_type, const std::string& flags);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
