// mcr_fuzz — randomized differential testing of the whole registry.
//
//   mcr_fuzz [--trials 200] [--seed 1] [--max-n 96] [--ratio]
//            [--negative] [--verbose] [--threads N]
//            [--trace-out FILE]
//
// --threads N routes every solve through the parallel SCC driver with N
// workers (0 = hardware), so the fuzzer also cross-checks the
// determinism of the parallel merge.
//
// Each trial draws a random instance (SPRAND / circuit / structured,
// random shape parameters), runs every registered solver of the problem
// kind, and checks that (a) all values agree exactly and (b) EVERY
// solver's result passes the exact optimality certificate — a solver
// returning the right value with a bogus witness cycle is caught. Any
// mismatch prints the instance in DIMACS form for replay with mcr_solve,
// the PRNG seed and an mcr_gen command line that regenerates the exact
// instance, records a Chrome/Perfetto trace of the failing solver's run
// (--trace-out, default mcr_fuzz.fail.trace.json), and exits nonzero.
// This is the long-running companion to the bounded cross-validation
// tests in tests/.
#include <fstream>
#include <iostream>
#include <string>

#include "cli.h"
#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "obs/build_info.h"
#include "graph/io.h"
#include "obs/trace_recorder.h"
#include "support/prng.h"

namespace {

constexpr const char* kUsage =
    "usage: mcr_fuzz [--trials N] [--seed N] [--max-n N] [--ratio] [--negative]\n"
    "                [--threads N] [--trace-out FILE] [--verbose] [--version]\n";

using namespace mcr;

struct Instance {
  Graph graph;
  /// mcr_gen command line that regenerates graph bit-for-bit; every
  /// shape parameter below is drawn so it round-trips through mcr_gen's
  /// integer flags exactly.
  std::string repro;
};

Instance random_instance(Prng& rng, NodeId max_n, bool ratio, bool negative) {
  const int family = static_cast<int>(rng.uniform_int(0, 3));
  const NodeId n = static_cast<NodeId>(rng.uniform_int(4, max_n));
  switch (family) {
    case 0:
    case 1: {  // SPRAND dominates, as in the paper
      gen::SprandConfig cfg;
      cfg.n = n;
      cfg.m = n + static_cast<ArcId>(rng.uniform_int(0, 3 * n));
      cfg.min_weight = negative && rng.bernoulli(0.5) ? -10000 : 1;
      cfg.max_weight = 10000;
      if (ratio) {
        cfg.min_transit = 1;
        cfg.max_transit = rng.uniform_int(1, 8);
      }
      cfg.seed = rng.fork_seed();
      std::string repro = "mcr_gen sprand --n " + std::to_string(cfg.n) + " --m " +
                          std::to_string(cfg.m) + " --wmin " +
                          std::to_string(cfg.min_weight) + " --wmax " +
                          std::to_string(cfg.max_weight);
      if (ratio) {
        repro += " --tmin " + std::to_string(cfg.min_transit) + " --tmax " +
                 std::to_string(cfg.max_transit);
      }
      repro += " --seed " + std::to_string(cfg.seed);
      return {gen::sprand(cfg), std::move(repro)};
    }
    case 2: {
      gen::CircuitConfig cfg;
      cfg.registers = n;
      cfg.module_size = static_cast<NodeId>(rng.uniform_int(4, 16));
      // Drawn in whole percent so mcr_gen's integer --fanout flag
      // reproduces the exact double.
      const std::int64_t fanout_pct = rng.uniform_int(120, 200);
      cfg.avg_fanout = static_cast<double>(fanout_pct) / 100.0;
      cfg.seed = rng.fork_seed();
      return {gen::circuit(cfg),
              "mcr_gen circuit --n " + std::to_string(cfg.registers) + " --module " +
                  std::to_string(cfg.module_size) + " --fanout " +
                  std::to_string(fanout_pct) + " --seed " + std::to_string(cfg.seed)};
    }
    default: {
      const NodeId rows = static_cast<NodeId>(rng.uniform_int(2, 8));
      const NodeId cols = static_cast<NodeId>(rng.uniform_int(2, 8));
      const std::uint64_t seed = rng.fork_seed();
      return {gen::torus(rows, cols, 1, 1000, seed),
              "mcr_gen torus --rows " + std::to_string(rows) + " --cols " +
                  std::to_string(cols) + " --wmin 1 --wmax 1000 --seed " +
                  std::to_string(seed)};
    }
  }
}

// On a failure, dump everything needed for a one-copy-paste replay:
// the instance in DIMACS form, the master seed, the exact mcr_gen
// command that regenerates the instance, and a Chrome trace of the
// failing solver's run.
void dump_failure(const Graph& g, const Instance& inst, std::uint64_t master_seed,
                  const std::string& solver_name, bool ratio,
                  const SolveOptions& solve_options, const std::string& trace_out) {
  write_dimacs(std::cerr, g, "mcr_fuzz failing instance");
  std::cerr << "repro: master seed " << master_seed << "; regenerate with:\n"
            << "  " << inst.repro << " --out fail.dimacs\n"
            << "  mcr_solve fail.dimacs --algo " << solver_name
            << (ratio ? " --ratio" : "") << " --verify --counters\n";
  obs::TraceRecorder recorder;
  SolveOptions traced = solve_options;
  traced.trace = &recorder;
  const auto solver = SolverRegistry::instance().create(solver_name);
  (void)(ratio ? minimum_cycle_ratio(g, *solver, traced)
               : minimum_cycle_mean(g, *solver, traced));
  std::ofstream out(trace_out);
  if (out) {
    recorder.write_chrome_trace(out);
    std::cerr << "trace: wrote " << recorder.events().size() << " events to "
              << trace_out << " (open in ui.perfetto.dev)\n";
  } else {
    std::cerr << "trace: cannot write " << trace_out << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt =
        cli::parse(argc, argv,
                   {"trials", "seed", "max-n", "ratio", "negative", "threads",
                    "trace-out", "verbose", "version"});
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_fuzz");
      return 0;
    }
    const std::int64_t trials = opt.get_int("trials", 200);
    const bool ratio = opt.has("ratio");
    const bool verbose = opt.has("verbose");
    const SolveOptions solve_options{
        .num_threads = static_cast<int>(opt.get_int_in("threads", 1, 0, 4096))};
    const auto master_seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    const std::string trace_out = opt.get("trace-out", "mcr_fuzz.fail.trace.json");
    Prng rng(master_seed);
    const auto kind = ratio ? ProblemKind::kCycleRatio : ProblemKind::kCycleMean;

    std::vector<std::string> solvers;
    for (const auto& name : SolverRegistry::instance().names(kind)) {
      if (name.rfind("brute_force", 0) == 0) continue;
      if (name == "ho_ratio") continue;  // Theta(Tn) memory; covered in tests
      solvers.push_back(name);
    }
    std::cout << "fuzzing " << solvers.size() << " solvers, " << trials << " trials ("
              << (ratio ? "ratio" : "mean") << "), seed " << master_seed << "\n";

    for (std::int64_t trial = 0; trial < trials; ++trial) {
      const Instance inst = random_instance(
          rng, static_cast<NodeId>(opt.get_int("max-n", 96)), ratio, opt.has("negative"));
      const Graph& g = inst.graph;
      bool have_ref = false;
      Rational reference;
      bool first = true;
      for (const auto& name : solvers) {
        const auto solver = SolverRegistry::instance().create(name);
        const CycleResult r = ratio ? minimum_cycle_ratio(g, *solver, solve_options)
                                    : minimum_cycle_mean(g, *solver, solve_options);
        if (first) {
          first = false;
          have_ref = r.has_cycle;
          if (r.has_cycle) reference = r.value;
        } else if (r.has_cycle != have_ref || (r.has_cycle && r.value != reference)) {
          std::cerr << "\nMISMATCH at trial " << trial << ": " << solvers.front() << "="
                    << (have_ref ? reference.to_string() : "acyclic") << " vs " << name
                    << "=" << (r.has_cycle ? r.value.to_string() : "acyclic")
                    << "\ninstance:\n";
          dump_failure(g, inst, master_seed, name, ratio, solve_options, trace_out);
          return 1;
        }
        // Certify every solver's own witness, not just the value: the
        // cycle must be well-formed, achieve r.value exactly, and
        // r.value must be optimal.
        if (r.has_cycle) {
          const auto cert = verify_result(g, r, kind);
          if (!cert.ok) {
            std::cerr << "\nCERTIFICATE FAILURE at trial " << trial << " (" << name
                      << "): " << cert.message << "\ninstance:\n";
            dump_failure(g, inst, master_seed, name, ratio, solve_options, trace_out);
            return 1;
          }
        }
      }
      if (verbose || (trial + 1) % 50 == 0) {
        std::cout << "  trial " << (trial + 1) << "/" << trials << " ok\n";
      }
    }
    std::cout << "all " << trials << " trials agree and certify\n";
    return 0;
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_fuzz: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_fuzz: " << e.what() << "\n";
    return 1;
  }
}
