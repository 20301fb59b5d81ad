// mcr_bench_diff — compare two BENCH_*.json artifacts and gate on
// regressions.
//
//   mcr_bench_diff BASELINE CANDIDATE [--threshold PCT] [--all-cells]
//
// A cell regresses when the candidate median is more than PCT% slower
// (default 5%) AND above the baseline's 95% bootstrap CI upper bound —
// the CI guard keeps noisy cells from flagging. Improvements use the
// symmetric rule. Exit codes: 0 clean, 1 at least one regression,
// 2 usage or artifact errors.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/artifact.h"
#include "cli.h"
#include "obs/build_info.h"

namespace {

using namespace mcr::bench;

constexpr const char* kUsage =
    "usage: mcr_bench_diff BASELINE CANDIDATE [--threshold PCT] [--all-cells]\n";

int run(const mcr::cli::Options& opt) {
  if (opt.positional.size() != 2) {
    std::cerr << kUsage;
    return 2;
  }
  DiffOptions options;
  options.threshold_pct = opt.get_double("threshold", options.threshold_pct);
  const BenchArtifact baseline = load_artifact(opt.positional[0]);
  const BenchArtifact candidate = load_artifact(opt.positional[1]);

  std::cout << "baseline:  " << opt.positional[0] << " (" << baseline.name
            << ", " << baseline.build.git_sha << ", scale " << baseline.scale
            << ")\n";
  std::cout << "candidate: " << opt.positional[1] << " (" << candidate.name
            << ", " << candidate.build.git_sha << ", scale " << candidate.scale
            << ")\n";
  if (baseline.scale != candidate.scale) {
    std::cout << "warning: artifacts were produced at different scales; "
                 "only matching cells compare\n";
  }
  std::cout << "threshold: " << options.threshold_pct << "% over baseline CI\n";

  const DiffReport report = diff_artifacts(baseline, candidate, options);
  print_diff(std::cout, report, opt.has("all-cells"));
  return report.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mcr::cli::Options opt =
        mcr::cli::parse(argc, argv, {"threshold", "all-cells", "version"});
    if (opt.has("version")) {
      std::cout << mcr::obs::version_string("mcr_bench_diff");
      return 0;
    }
    return run(opt);
  } catch (const mcr::cli::UsageError& e) {
    std::cerr << "mcr_bench_diff: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_bench_diff: " << e.what() << "\n";
    return 2;
  }
}
