// perfbench — the repository benchmark harness.
//
//   perfbench --workload solve_giant|serve_warm|fleet_mixed --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//
// Prints one details line (provenance, sample counts, validity, absent
// metrics) and then the one-line JSON verdict
// {"correct","attempted","failed","metrics"}. With --trace 1 the metrics
// are the per-layer breakdown and the spans go to
// OUT_DIR/trace-<workload>-<seed>.json (Perfetto / chrome://tracing).
//
// Exit status: 0 ok; 1 a wrong answer; 2 usage or set-up failure;
// 3 the run judged itself invalid and withheld its numbers.
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "obs/build_info.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  // splitmix64 over a mix of the three inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^ (tag << 32) ^ (index + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z & ((std::uint64_t{1} << 53) - 1);  // exact in a JSON double
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: unexpected argument " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "bin-dir", "out-dir"}) {
    if (!args.count(required) || argc % 2 != 1) {
      std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                   "--bin-dir DIR --out-dir DIR\n";
      return 2;
    }
  }
  RunConfig cfg;
  try {
    const std::string workload = args["workload"];
    cfg.seed = std::stoull(args["seed"]);
    cfg.seconds = std::stod(args["seconds"]);
    cfg.trace = args["trace"] == "1";
    cfg.bin_dir = args["bin-dir"];
    cfg.run_dir = args["out-dir"] + "/run-" + std::to_string(::getpid());
    if (cfg.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    std::filesystem::create_directories(cfg.run_dir);

    Report report(workload, cfg.seed, cfg.trace);
    Tracer tracer(cfg.trace);
    tracer.name_process(1, "perfbench " + workload);
    tracer.name_process(2, "libmcr (in-process driver spans)");
    const mcr::obs::BuildInfo& build = mcr::obs::build_info();
    if (const std::string problem = build_problem(build.build_type, build.flags);
        !problem.empty()) {
      report.invalid("benchmark harness is a " + problem);
    }
    if (workload == "solve_giant") {
      run_solve_giant(cfg, report, tracer);
    } else if (workload == "serve_warm") {
      run_serve_warm(cfg, report, tracer);
    } else if (workload == "fleet_mixed") {
      run_fleet_mixed(cfg, report, tracer);
    } else {
      throw std::invalid_argument("unknown workload '" + workload +
                                  "' (expected solve_giant | serve_warm | fleet_mixed)");
    }
    if (cfg.trace) {
      const std::string path =
          args["out-dir"] + "/trace-" + workload + "-" + args["seed"] + ".json";
      tracer.write(path);
      report.note("trace_file", "\"" + path + "\"");
    }
    std::filesystem::remove_all(cfg.run_dir);
    return report.finish();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    std::error_code ignored;
    if (!cfg.run_dir.empty()) std::filesystem::remove_all(cfg.run_dir, ignored);
    return 2;
  }
}
