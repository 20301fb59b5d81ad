// mcr_solve — solve an MCM/MCR instance from a DIMACS file.
//
// The result is bit-identical for any --threads and --tile-arcs.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "cli.h"
#include "core/critical.h"
#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "graph/io.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "support/stats.h"
#include "support/table.h"
#include "svc/result_json.h"

namespace {

using namespace mcr;

const std::vector<cli::Flag> kFlags = {
    {"algo", "NAME", "registry solver (default: howard / howard_ratio)"},
    {"ratio", "", "optimize w(C)/t(C) instead of w(C)/|C|"},
    {"max", "", "maximize instead of minimize"},
    {"verify", "", "certify the result exactly and report"},
    {"critical", "", "also print critical-subgraph statistics"},
    {"counters", "", "print the solver's operation counters"},
    {"all", "", "run every registered solver of the problem kind"},
    {"threads", "N", "solve SCC subproblems on N worker threads\n"
                     "(0 = one per hardware thread; default 1 = serial)"},
    {"tile-arcs", "N", "split relaxation sweeps into arc tiles of at most N CSR\n"
                       "positions so one giant SCC also spreads over the workers\n"
                       "(default 0 = untiled; 4096 is a good cache-sized value)"},
    {"trace", "FILE", "record a Chrome/Perfetto trace of the solve (with --all,\n"
                      "one file covers every solver's run back to back)"},
    {"metrics", "", "print Prometheus-style metrics after the result"},
    {"metrics-json", "FILE", "write the metrics as one JSON object"},
    {"output", "json", "the solve service's result schema on stdout"},
    {"json", "", "same as --output=json"},
    {"list", "", "list registered solvers and exit"},
    {"version", "", "print build provenance and exit"},
};
constexpr std::string_view kSynopsis = "mcr_solve <file.dimacs> [options]";

int solve_one(const Graph& g, const std::string& algo, bool ratio, bool max,
              const cli::Options& opt, obs::TraceSink* trace,
              obs::MetricsRegistry* metrics) {
  const auto solver = SolverRegistry::instance().create(algo);
  const SolveOptions so{
      .num_threads = static_cast<int>(opt.get_int_in("threads", 1, 0, 4096)),
      .tile_arcs =
          static_cast<std::int32_t>(opt.get_int_in("tile-arcs", 0, 0, 1 << 30)),
      .trace = trace,
      .metrics = metrics};
  Timer timer;
  const CycleResult r = max   ? (ratio ? maximum_cycle_ratio(g, *solver, so)
                                       : maximum_cycle_mean(g, *solver, so))
                        : ratio ? minimum_cycle_ratio(g, *solver, so)
                                : minimum_cycle_mean(g, *solver, so);
  const double ms = timer.millis();

  if (opt.has("json") || opt.get("output") == "json") {
    const std::string objective =
        std::string(max ? "max" : "min") + "_" + (ratio ? "ratio" : "mean");
    std::cout << svc::result_json(r, algo, objective, ms) << "\n";
    return 0;
  }
  if (!r.has_cycle) {
    std::cout << algo << ": graph is acyclic (no cycle mean/ratio)\n";
    return 0;
  }
  std::cout << algo << ": " << (max ? "maximum" : "minimum") << " cycle "
            << (ratio ? "ratio" : "mean") << " = " << r.value << " ("
            << r.value.to_double() << "), cycle length " << r.cycle.size() << ", "
            << fmt_fixed(ms, 2) << " ms\n";
  if (opt.has("counters")) {
    std::cout << "  counters: " << r.counters.summary() << "\n";
  }
  if (opt.has("verify")) {
    // The maximum variants are verified on the negated problem by the
    // library's tests; here we verify the minimum variants directly.
    if (max) {
      std::cout << "  verify: use --max with the negated instance to certify\n";
    } else {
      const auto cert =
          verify_result(g, r, ratio ? ProblemKind::kCycleRatio : ProblemKind::kCycleMean);
      std::cout << "  verify: " << (cert.ok ? "OK (exact optimum)" : cert.message)
                << "\n";
      if (!cert.ok) return 1;
    }
  }
  if (opt.has("critical") && !max) {
    const auto kind = ratio ? ProblemKind::kCycleRatio : ProblemKind::kCycleMean;
    const CriticalSubgraph crit = critical_subgraph(g, r.value, kind);
    const auto optimal = optimal_arc_set(g, r.value, kind);
    std::cout << "  critical subgraph: " << crit.arcs.size() << " arcs / "
              << crit.nodes.size() << " nodes; " << optimal.size()
              << " arcs lie on optimum cycles\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt = cli::parse(argc, argv, kFlags);
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_solve");
      return 0;
    }
    const bool ratio = opt.has("ratio");
    if (opt.has("list")) {
      const auto kind = ratio ? ProblemKind::kCycleRatio : ProblemKind::kCycleMean;
      for (const auto& name : SolverRegistry::instance().names(kind)) {
        const auto& info = SolverRegistry::instance().info(name);
        std::cout << name << "  (" << info.source << ", " << info.bound << ")\n";
      }
      return 0;
    }
    if (opt.positional.size() != 1) throw cli::UsageError("expected one <file.dimacs>");
    const Graph g = load_dimacs(opt.positional[0]);
    std::cout << "instance: " << g.num_nodes() << " nodes, " << g.num_arcs()
              << " arcs, weights [" << g.min_weight() << ", " << g.max_weight()
              << "], total transit " << g.total_transit() << "\n";

    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    const bool want_trace = opt.has("trace");
    const bool want_metrics = opt.has("metrics") || opt.has("metrics-json");
    obs::TraceSink* trace = want_trace ? &recorder : nullptr;
    obs::MetricsRegistry* metrics = want_metrics ? &registry : nullptr;
    if (want_metrics) obs::export_build_info(registry);

    const bool max = opt.has("max");
    int rc = 0;
    if (opt.has("all")) {
      const auto kind = ratio ? ProblemKind::kCycleRatio : ProblemKind::kCycleMean;
      for (const auto& name : SolverRegistry::instance().names(kind)) {
        if (name.rfind("brute_force", 0) == 0) continue;
        rc |= solve_one(g, name, ratio, max, opt, trace, metrics);
      }
    } else {
      const std::string algo = opt.get("algo", ratio ? "howard_ratio" : "howard");
      rc = solve_one(g, algo, ratio, max, opt, trace, metrics);
    }

    if (want_trace) {
      std::ofstream out(opt.get("trace"));
      if (!out) throw std::runtime_error("cannot write trace file " + opt.get("trace"));
      recorder.write_chrome_trace(out);
      std::cout << "trace: wrote " << recorder.events().size() << " events from "
                << recorder.num_threads() << " thread(s) to " << opt.get("trace")
                << " (open in ui.perfetto.dev)\n";
    }
    if (opt.has("metrics")) {
      std::cout << "metrics:\n" << registry.prometheus_text();
    }
    if (opt.has("metrics-json")) {
      std::ofstream out(opt.get("metrics-json"));
      if (!out) {
        throw std::runtime_error("cannot write metrics file " + opt.get("metrics-json"));
      }
      registry.write_json(out);
      out << "\n";
      std::cout << "metrics: wrote JSON dump to " << opt.get("metrics-json") << "\n";
    }
    return rc;
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_solve: " << e.what() << "\n" << cli::usage(kSynopsis, kFlags);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_solve: " << e.what() << "\n";
    return 1;
  }
}
