// Unit tests for the benchmark's own logic: the percentile and
// sample-count rule, failure accounting, the run-validity flags and the
// match of a run's metrics against the manifest.
// Plain checks (no framework) so the benchmark builds with the compiler
// alone; every check stays active under NDEBUG.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "manifest.h"
#include "report.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_is_nearest_rank() {
  using perfbench::percentile;
  expect(percentile(one_to(100), 0.50) == 50, "p50 of 1..100 is 50");
  expect(percentile(one_to(100), 0.99) == 99, "p99 of 1..100 is 99");
  expect(percentile(one_to(1000), 0.99) == 990, "p99 of 1..1000 is 990");
  expect(percentile(one_to(5), 0.50) == 3, "p50 of 1..5 is 3");
  expect(percentile(one_to(4), 0.50) == 2, "p50 of 1..4 is the lower middle");
  expect(percentile({7.0}, 0.99) == 7.0, "one sample is every percentile");
  expect(percentile(one_to(10), 1.0) == 10, "p100 is the maximum");
  bool threw = false;
  try {
    (void)percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of no samples throws");
}

void failures_sit_above_every_percentile() {
  using perfbench::kFailedSample;
  using perfbench::percentile;
  std::vector<double> v = one_to(1000);
  for (int i = 0; i < 10; ++i) v.push_back(kFailedSample);  // 1010 samples
  expect(percentile(v, 0.99) == 1000, "10 failures in 1010 stay beyond p99");
  for (int i = 0; i < 10; ++i) v.push_back(kFailedSample);  // 1020 samples, 20 failed
  expect(std::isinf(percentile(v, 0.99)), "20 failures in 1020 push p99 onto a failure");
  expect(percentile(v, 0.50) == 510, "failures still shift the median rank");
}

void sample_count_rule() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(percentile_supported(1000, 0.99), "p99 reportable from 1000 samples");
  expect(!percentile_supported(999, 0.99), "p99 not reportable from 999 samples");
  expect(percentile_supported(20, 0.50), "p50 reportable from 20 samples");
  expect(!percentile_supported(19, 0.50), "p50 not reportable from 19 samples");
  expect(samples_beyond(0, 0.5) == 0, "no samples, none beyond");
}

void tally_counts_failures_against_attempts() {
  perfbench::Tally t;
  expect(t.ok_rate() == 1.0, "empty tally has ok_rate 1");
  for (int i = 0; i < 97; ++i) t.ok();
  t.fail();
  t.fail();
  t.wrong_answer();
  expect(t.attempted == 100, "every outcome is an attempt");
  expect(t.failed == 3, "errors and wrong answers both fail");
  expect(t.wrong == 1, "wrong answers are counted apart");
  expect(std::abs(t.ok_rate() - 0.97) < 1e-12, "ok_rate is 1 - failed/attempted");
}

void validity_flags() {
  using perfbench::ServiceRunFacts;
  using perfbench::service_run_problems;
  ServiceRunFacts good;
  good.open_loop_samples = 5000;
  good.send_lag_ms_p99 = 0.5;
  good.cpu_util = 0.1;
  expect(service_run_problems(good).empty(), "a clean run is valid");

  ServiceRunFacts f = good;
  f.open_loop_samples = 999;
  expect(service_run_problems(f).size() == 1, "too few samples for p99 is invalid");
  f = good;
  f.cold_cached = 1;
  expect(service_run_problems(f).size() == 1, "a cold request served from cache is invalid");
  f = good;
  f.warm_missed = 2;
  expect(service_run_problems(f).size() == 1, "a warm request that missed is invalid");
  f = good;
  f.send_lag_ms_p99 = 50.0;
  expect(service_run_problems(f).size() == 1, "a late generator is invalid");
  f = good;
  f.cpu_util = 0.99;
  expect(service_run_problems(f).size() == 1, "a saturated load process is invalid");
  f = good;
  f.send_lag_ms_p99 = std::nan("");
  expect(service_run_problems(f).size() == 1, "an unmeasured send lag is invalid");
  f.cold_cached = 3;
  f.warm_missed = 3;
  expect(service_run_problems(f).size() == 3, "every problem is reported");
}

void build_provenance() {
  using perfbench::build_problem;
  expect(build_problem("Release", "-O3 -DNDEBUG").empty(), "Release is reportable");
  expect(!build_problem("Debug", "-g").empty(), "Debug is refused");
  expect(!build_problem("", "").empty(), "an empty build type is refused");
  expect(!build_problem("Release", "-O3 -fsanitize=address,undefined").empty(),
         "a sanitizer build is refused");
}

void metrics_match_the_manifest() {
  using namespace perfbench;
  const auto end_to_end = [](Report& r) {
    r.metric("setup_s", 0.5, "s");
    r.metric("peak_rss_mb", 20.0, "MiB");
    r.metric("ok_rate", 1.0, "ratio");
  };
  Report full("serve_warm", 1, false);
  end_to_end(full);
  full.metric("ops_per_cpu_s", 900.0, "1/s");
  expect(full.complete(kEndToEnd, kServeWarm).empty(), "every end-to-end metric reported");

  Report missing("serve_warm", 1, false);
  end_to_end(missing);
  missing.absent("ops_per_cpu_s", "closed loop failed");
  const auto absent = missing.complete(kEndToEnd, kServeWarm);
  expect(absent.size() == 1 && absent[0] == "ops_per_cpu_s is absent: closed loop failed",
         "a measured metric that is absent is a problem, with its reason");

  Report wrong_unit("serve_warm", 1, false);
  end_to_end(wrong_unit);
  wrong_unit.metric("ops_per_cpu_s", 900.0, "rps");
  expect(wrong_unit.complete(kEndToEnd, kServeWarm).size() == 1, "a wrong unit is a problem");

  Report extra("serve_warm", 1, false);
  end_to_end(extra);
  extra.metric("ops_per_cpu_s", 900.0, "1/s");
  extra.metric("latency_ms_p50", 1.0, "ms");
  expect(extra.complete(kEndToEnd, kServeWarm).size() == 1,
         "a metric outside the manifest is a problem");

  // A traced run that reports nothing: only the metrics its workload
  // measures are missing; every other one reads 0 as not exercised.
  std::size_t measured_on_fleet = 0;
  for (const MetricSpec& m : kPerLayer) measured_on_fleet += (m.measured_on & kFleetMixed) ? 1 : 0;
  Report none("fleet_mixed", 1, true);
  expect(none.complete(kPerLayer, kFleetMixed).size() == measured_on_fleet,
         "only the workload's own metrics may not be missing");
  expect(workload_bit("solve_giant") == kSolveGiant && workload_bit("nope") == 0,
         "workload names map to their bits");
}

}  // namespace

int main() {
  percentile_is_nearest_rank();
  failures_sit_above_every_percentile();
  sample_count_rule();
  tally_counts_failures_against_attempts();
  validity_flags();
  build_provenance();
  metrics_match_the_manifest();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench_tests: all checks passed\n";
  return EXIT_SUCCESS;
}
