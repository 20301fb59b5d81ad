// mcr_bench — run a named workload grid and write a BENCH_<name>.json
// artifact: per-cell median/MAD/95% bootstrap CI wall times, driver
// phase breakdown, and hardware counters (perf_event_open, degrading to
// "unavailable" in containers). Artifacts are the repo's perf
// trajectory; compare two with mcr_bench_diff.
//
//   mcr_bench [--name NAME] [--workload sprand|sprand_ratio|circuit]
//             [--solvers a,b,c] [--out FILE] [--trials N] [--warmup N]
//             [--max-n N] [--threads N] [--tile-arcs N] [--no-phases]
//             [--list]
//
//   --name NAME     artifact name (default: the workload); the file
//                   defaults to BENCH_<name>.json
//   --workload W    sprand        Table-2 SPRAND grid, mean solvers
//                   sprand_ratio  transit U[1,10] grid, ratio solvers
//                   circuit       synthetic LGSynth-style suite
//   --solvers CSV   registry solver names (default per workload)
//   --trials N      timed repetitions per cell (default 5)
//   --warmup N      discarded warmup runs per cell (default 1)
//   --max-n N       drop grid cells with more than N nodes
//   --n N --m M     replace the sprand grids with one custom cell
//                   (single-instance A/B runs, e.g. tiling studies)
//   --threads N     per-SCC worker threads for the measured solves
//   --tile-arcs N   arc-tile granularity for intra-SCC parallelism
//                   (0 = untiled; results are bit-identical either way)
//   --no-phases     skip the traced phase-breakdown pass
//   --list          print workloads and their default solver sets
//
// The grid follows MCR_BENCH_SCALE (small | medium | full) like every
// bench binary. Each cell measures one fixed instance (trial 0 of the
// cell's seed schedule) so medians are comparable run-over-run; the
// cross-seed spread lives in the legacy bench binaries.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/artifact.h"
#include "benchkit/runner.h"
#include "benchkit/workloads.h"
#include "cli.h"
#include "core/registry.h"
#include "gen/circuit.h"
#include "obs/build_info.h"
#include "obs/perf_counters.h"
#include "support/table.h"

namespace {

using namespace mcr;
using namespace mcr::bench;

constexpr const char* kUsage =
    "usage: mcr_bench [--name NAME] [--workload sprand|sprand_ratio|circuit]\n"
    "                 [--solvers a,b,c] [--out FILE] [--trials N] [--warmup N]\n"
    "                 [--max-n N] [--n N --m M] [--threads N] [--tile-arcs N]\n"
    "                 [--no-phases] [--list] [--version]\n";

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> default_solvers;
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs{
      {"sprand", {"howard", "ko", "yto", "karp"}},
      {"sprand_ratio", {"howard_ratio", "yto_ratio", "lawler_ratio"}},
      {"circuit", {"howard", "ko", "yto", "karp", "dg"}},
  };
  return specs;
}

struct GridInstance {
  std::string instance;
  NodeId n;
  ArcId m;
  Graph graph;
};

std::vector<GridInstance> build_grid(const std::string& workload, NodeId max_n,
                                     NodeId custom_n, ArcId custom_m) {
  const Scale scale = bench_scale();
  std::vector<GridInstance> out;
  if (custom_n != 0 && workload != "circuit") {
    const GridCell cell{custom_n, custom_m};
    const bool ratio = workload == "sprand_ratio";
    Graph g = ratio ? ratio_instance(cell, 0) : table2_instance(cell, 0);
    out.push_back(GridInstance{
        "n" + std::to_string(cell.n) + "_m" + std::to_string(cell.m), cell.n,
        cell.m, std::move(g)});
    return out;
  }
  if (workload == "circuit") {
    for (const CircuitCase& c : circuit_suite(scale)) {
      Graph g = gen::circuit(c.config);
      if (max_n != 0 && g.num_nodes() > max_n) continue;
      const NodeId n = g.num_nodes();
      const ArcId m = g.num_arcs();
      out.push_back(GridInstance{c.name, n, m, std::move(g)});
    }
    return out;
  }
  const bool ratio = workload == "sprand_ratio";
  for (const GridCell cell : table2_grid(scale)) {
    if (max_n != 0 && cell.n > max_n) continue;
    Graph g = ratio ? ratio_instance(cell, 0) : table2_instance(cell, 0);
    out.push_back(GridInstance{
        "n" + std::to_string(cell.n) + "_m" + std::to_string(cell.m), cell.n,
        cell.m, std::move(g)});
  }
  return out;
}

int run(const cli::Options& opt) {
  if (opt.has("list")) {
    for (const WorkloadSpec& spec : workload_specs()) {
      std::cout << spec.name << ":";
      for (const auto& s : spec.default_solvers) std::cout << " " << s;
      std::cout << "\n";
    }
    return 0;
  }

  const std::string workload = opt.get("workload", "sprand");
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : workload_specs()) {
    if (s.name == workload) spec = &s;
  }
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (see --list)");
  }
  const std::string name = opt.get("name", workload);
  const std::string out_path = opt.get("out", "BENCH_" + name + ".json");
  const std::vector<std::string> solvers =
      opt.has("solvers") ? cli::split_csv(opt.get("solvers")) : spec->default_solvers;
  for (const std::string& solver : solvers) {
    (void)SolverRegistry::instance().create(solver);  // validate early
  }
  RepeatOptions repeat;
  repeat.repetitions = static_cast<int>(opt.get_int_in("trials", 5, 1, 1000));
  repeat.warmup = static_cast<int>(opt.get_int_in("warmup", 1, 0, 100));
  const SolveOptions solve_options{
      .num_threads = static_cast<int>(opt.get_int_in("threads", 1, 0, 4096)),
      .tile_arcs =
          static_cast<std::int32_t>(opt.get_int_in("tile-arcs", 0, 0, 1 << 30))};
  const auto max_n = static_cast<NodeId>(opt.get_int_in("max-n", 0, 0, 1 << 26));

  obs::PerfCounterGroup perf;
  BenchArtifact artifact;
  artifact.name = name;
  artifact.scale = scale_name(bench_scale());
  artifact.warmup = repeat.warmup;
  artifact.repetitions = repeat.repetitions;
  artifact.counters_backend = perf.hardware() ? perf.backend() : "unavailable";
  artifact.counters_fallback_reason = perf.fallback_reason();
  artifact.build = obs::build_info();

  std::cout << "mcr_bench " << name << ": workload " << workload << ", scale "
            << artifact.scale << ", " << repeat.repetitions << " trials (+"
            << repeat.warmup << " warmup), counters "
            << artifact.counters_backend
            << (perf.hardware() ? "" : " (" + perf.fallback_reason() + ")")
            << "\n";

  const auto custom_n = static_cast<NodeId>(opt.get_int_in("n", 0, 0, 1 << 26));
  const auto custom_m = static_cast<ArcId>(
      opt.get_int_in("m", custom_n, custom_n, std::int64_t{1} << 30));
  const std::vector<GridInstance> grid =
      build_grid(workload, max_n, custom_n, custom_m);
  if (grid.empty()) throw std::runtime_error("workload grid is empty");

  TimeBudget budget(default_time_budget());
  TextTable table({"instance", "solver", "median", "mad", "ci95", "cycles"});
  for (const GridInstance& gi : grid) {
    for (const std::string& solver : solvers) {
      BenchCell cell;
      cell.workload = workload;
      cell.instance = gi.instance;
      cell.n = gi.n;
      cell.m = gi.m;
      cell.solver = solver;
      if (budget.should_skip(solver)) {
        cell.skip_reason = "time";
      } else {
        const RepeatedRun run = time_solver_repeated(
            solver, gi.graph, repeat, perf.hardware() ? &perf : nullptr,
            2ULL << 30, solve_options);
        if (!run.ran) {
          cell.skip_reason = run.skip_reason;
        } else {
          cell.ran = true;
          cell.seconds = run.seconds;
          budget.record(solver, run.seconds.median);
          for (std::size_t i = 0; i < obs::kNumPerfCounters; ++i) {
            if (!run.counters.available[i]) continue;
            cell.counters[obs::to_string(static_cast<obs::PerfCounter>(i))] =
                static_cast<double>(run.counters.value[i]);
          }
          cell.counters_available = !cell.counters.empty();
          if (!opt.has("no-phases")) {
            cell.phases = phase_breakdown(solver, gi.graph, solve_options);
          }
        }
      }
      const auto cycles = cell.counters.find("cycles");
      table.add_row(
          {gi.instance, solver,
           cell.ran ? fmt_ms(cell.seconds.median) : "N/A(" + cell.skip_reason + ")",
           cell.ran ? fmt_ms(cell.seconds.mad) : "-",
           cell.ran ? "[" + fmt_ms(cell.seconds.ci_lower) + ", " +
                          fmt_ms(cell.seconds.ci_upper) + "]"
                    : "-",
           cycles != cell.counters.end()
               ? std::to_string(static_cast<long long>(cycles->second))
               : "-"});
      artifact.cells.push_back(std::move(cell));
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n";
  table.print(std::cout);

  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  write_artifact(out, artifact);
  std::cout << "[artifact: " << out_path << " — schema v" << kBenchSchemaVersion
            << ", " << artifact.cells.size() << " cells; compare with "
            << "mcr_bench_diff]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Options opt =
        cli::parse(argc, argv,
                   {"name", "workload", "solvers", "out", "trials", "warmup", "max-n",
                    "n", "m", "threads", "tile-arcs", "no-phases", "list", "version"});
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_bench");
      return 0;
    }
    return run(opt);
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_bench: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_bench: " << e.what() << "\n";
    return 1;
  }
}
