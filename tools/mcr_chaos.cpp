// mcr_chaos — end-to-end chaos harness for the solve service.
//
// For each seed, builds a fault::Plan, installs a fault::Injector,
// starts an in-process Server on a fresh unix socket, and drives it
// through a fixed sequential client workload (LOAD + SOLVE over known
// strongly connected graphs, with and without deadlines). The harness
// keeps its own copy of every graph it loads, so it can hold the server
// to the full contract under injected faults:
//
//   * every "status":"ok" SOLVE response must carry a witness cycle
//     that core::verify_result certifies as optimal — a fault may make
//     a request fail, but it must never make a wrong answer;
//   * every "status":"error" response must carry a documented typed
//     code (docs/ROBUSTNESS.md), never a raw what() leaking through;
//   * transport drops are survivable: reconnect + retry must succeed
//     against the still-alive server;
//   * stop_and_drain() must complete while faults are still firing.
//
// The client thread runs under fault::SuppressScope so only server
// threads draw injection decisions; with the sequential workload the
// per-site sequence numbering is then deterministic and --repeat-check
// can assert that re-running a seed reproduces the injection trace
// bit-identically (the determinism contract from src/fault/fault.h).
//
// In a build without MCR_FAULT_INJECTION the hooks fold to constants;
// the tool says so and degrades to a pure verification sweep.
//
// The in-process servers run their flight recorders in a deliberately
// tiny configuration (ring/pinned capacity --flight, slow-ms 0, head
// sampling 1.0 — every request pinned with full solver detail), and the
// sweep asserts after every seed that both retention sets stayed within
// capacity: the flight recorder must hold its memory bound under
// sustained faulty load. --crash-test PATH additionally installs the
// fatal-signal dump handler after the first seed's workload and raises
// SIGABRT: the process must die by the signal (nonzero exit) *and*
// leave a well-formed Chrome-JSON ring dump at PATH — the post-mortem
// contract ci.sh validates.
//
//   mcr_chaos [--seeds N] [--seed-base B] [--solves N] [--plan SPEC]
//             [--repeat-check] [--trace] [--flight N]
//             [--crash-test PATH]
//
// Exit status: 0 = no invariant violations, 1 = violations (each is
// printed), 2 = usage error; --crash-test dies by SIGABRT.
#include <unistd.h>

#include <csignal>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "core/verify.h"
#include "fault/fault.h"
#include "gen/sprand.h"
#include "graph/io.h"
#include "obs/flight_recorder.h"
#include "support/json.h"
#include "svc/client.h"
#include "svc/errors.h"
#include "svc/server.h"

namespace {

using namespace mcr;

// Moderate rates at every site. max_per_site keeps a sweep bounded (a
// high-probability EINTR plan must not starve a retry loop forever).
constexpr const char* kDefaultPlan =
    "alloc=0.03,read_eintr=0.06,read_short=0.06,read_reset=0.02,"
    "write_eintr=0.06,write_short=0.06,write_reset=0.02,"
    "worker_stall=0.05,worker_death=0.1,clock_skip=0.1,phase=0.03,"
    "stall_ms=1,max_per_site=64";

bool is_documented_code(const std::string& code) {
  return code == svc::kErrBadRequest || code == svc::kErrNotFound ||
         code == svc::kErrBusy || code == svc::kErrDeadline ||
         code == svc::kErrFrameTooLarge || code == svc::kErrBadFrame ||
         code == svc::kErrShuttingDown || code == svc::kErrInternal;
}

/// The fixed graph set: strongly connected (SPRAND has a Hamiltonian
/// backbone), so every solve must report has_cycle. Content is constant
/// across seeds — only the fault schedule varies.
std::vector<Graph> make_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(gen::sprand({.n = 16, .m = 48, .seed = 11}));
  graphs.push_back(gen::sprand({.n = 40,
                                .m = 120,
                                .min_weight = -5000,
                                .max_weight = 5000,
                                .min_transit = 1,
                                .max_transit = 5,
                                .seed = 23}));
  graphs.push_back(gen::sprand({.n = 8, .m = 20, .seed = 5}));
  return graphs;
}

std::string to_dimacs(const Graph& g) {
  std::ostringstream os;
  write_dimacs(os, g, "mcr_chaos workload instance");
  return os.str();
}

struct SeedReport {
  std::uint64_t seed = 0;
  int requests = 0;
  int ok = 0;
  int typed_errors = 0;
  int transport_failures = 0;
  std::uint64_t injections = 0;
  std::string trace;
  std::vector<std::string> violations;
};

/// Rebuilds a CycleResult from a response's embedded result schema and
/// certifies it against the locally kept graph.
void check_ok_response(const Graph& g, const json::Value& response, bool ratio,
                       const std::string& what, SeedReport& report) {
  const json::Value& result = response.at("result");
  if (!result.at("has_cycle").as_bool()) {
    report.violations.push_back(what +
                                ": ok response claims no cycle on a strongly "
                                "connected graph");
    return;
  }
  CycleResult r;
  r.has_cycle = true;
  r.value = Rational(
      static_cast<std::int64_t>(result.at("value_num").as_double()),
      static_cast<std::int64_t>(result.at("value_den").as_double()));
  for (const json::Value& a : result.at("cycle_arcs").as_array()) {
    r.cycle.push_back(static_cast<ArcId>(a.as_double()));
  }
  const VerifyOutcome v = verify_result(
      g, r, ratio ? ProblemKind::kCycleRatio : ProblemKind::kCycleMean);
  if (!v.ok) {
    report.violations.push_back(what + ": witness failed verification: " +
                                v.message);
  }
}

/// One seeded session against a fresh server. The injector (when the
/// hooks are compiled in) is installed by the caller.
void run_workload(const std::string& socket_path, const std::vector<Graph>& graphs,
                  const std::vector<std::string>& dimacs, int solves,
                  std::uint64_t seed, SeedReport& report) {
  // Suppress client-side draws: only server threads consume sequence
  // numbers, which keeps the trace deterministic (see file comment).
  fault::SuppressScope suppress;

  svc::Client client = svc::Client::connect_unix(socket_path);
  svc::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1.0;
  policy.max_backoff_ms = 20.0;
  policy.budget_ms = 10'000.0;
  policy.jitter_seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  client.set_retry_policy(policy);

  const auto note_typed = [&](const svc::ServiceError& e, const std::string& what) {
    ++report.typed_errors;
    if (!is_documented_code(e.code())) {
      report.violations.push_back(what + ": undocumented error code '" + e.code() +
                                  "' (" + e.what() + ")");
    }
  };
  const auto recover_transport = [&](const std::string& what) {
    ++report.transport_failures;
    try {
      client.reconnect();
    } catch (const std::exception& e) {
      report.violations.push_back(what + ": reconnect to live server failed: " +
                                  e.what());
    }
  };

  // LOAD each instance (idempotent; INTERNAL here is an injected alloc
  // failure, so plain repetition is the right recovery).
  std::vector<std::string> fingerprints(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const std::string what = "load[" + std::to_string(i) + "]";
    for (int attempt = 0; attempt < 6 && fingerprints[i].empty(); ++attempt) {
      ++report.requests;
      try {
        fingerprints[i] = client.load_dimacs_text(dimacs[i]);
        ++report.ok;
      } catch (const svc::ServiceError& e) {
        note_typed(e, what);
      } catch (const svc::TransportError&) {
        recover_transport(what);
      }
    }
  }

  for (int i = 0; i < solves; ++i) {
    const std::size_t gi = static_cast<std::size_t>(i) % graphs.size();
    if (fingerprints[gi].empty()) continue;  // LOAD never survived injection
    const bool ratio = (i % 2) == 1;
    const std::string objective = ratio ? "min_ratio" : "min_mean";
    const double deadline_ms = (i % 3) == 2 ? 60'000.0 : 0.0;
    const std::string what =
        "solve[" + std::to_string(i) + " " + objective + " g" + std::to_string(gi) +
        (deadline_ms > 0 ? " deadline" : "") + "]";
    ++report.requests;
    try {
      const json::Value r =
          client.solve_retry(fingerprints[gi], objective, "", deadline_ms);
      ++report.ok;
      check_ok_response(graphs[gi], r, ratio, what, report);
    } catch (const svc::ServiceError& e) {
      note_typed(e, what);
    } catch (const svc::TransportError&) {
      recover_transport(what);
    }

    if ((i % 4) == 3) {
      ++report.requests;
      try {
        const json::Value h = client.health();
        if (h.string_or("status", "") == "ok") {
          ++report.ok;
          (void)h.at("healthy").as_bool();  // contract: field present
        } else {
          ++report.typed_errors;
          const std::string code = h.string_or("code", "");
          if (!is_documented_code(code)) {
            report.violations.push_back("health: undocumented error code '" +
                                        code + "'");
          }
        }
      } catch (const svc::TransportError&) {
        recover_transport("health");
      }
    }
  }
}

SeedReport run_seed(std::uint64_t seed, const fault::Plan& base_plan,
                    const std::vector<Graph>& graphs,
                    const std::vector<std::string>& dimacs, int solves, int run_index,
                    std::size_t flight_capacity, const std::string& crash_dump) {
  SeedReport report;
  report.seed = seed;

  std::ostringstream path;
  path << "/tmp/mcr_chaos." << ::getpid() << "." << seed << "." << run_index
       << ".sock";

  svc::ServerOptions options;
  options.unix_socket_path = path.str();
  options.solve_threads = 2;
  options.queue_capacity = 8;
  // Leave the idle reaper off: it is wall-clock-driven and would make
  // the injection trace timing-dependent.
  options.idle_timeout_ms = 0;
  // A deliberately tiny flight recorder under maximum pressure: slow-ms
  // 0 pins every request and sample 1.0 records full solver detail, so
  // both retention sets churn through eviction constantly. The bound
  // checks after the workload are the memory contract.
  options.flight.capacity = flight_capacity;
  options.flight.pinned_capacity = flight_capacity;
  options.flight.slow_ms = 0.0;
  options.flight.sample_rate = 1.0;

#if defined(MCR_FAULT_INJECTION) && MCR_FAULT_INJECTION
  fault::Plan plan = base_plan;
  plan.seed = seed;
  fault::Injector injector(plan);
  fault::Injector::install(&injector);
#else
  (void)base_plan;
#endif

  svc::Server server(options);
  try {
    server.start();
    run_workload(options.unix_socket_path, graphs, dimacs, solves, seed, report);
  } catch (const std::exception& e) {
    report.violations.push_back(std::string("session aborted: ") + e.what());
  }

  // Memory contract: however the faults fell, the flight recorder must
  // have stayed within both of its configured capacities.
  if (server.flight().ring_size() > options.flight.capacity) {
    report.violations.push_back(
        "flight recorder ring exceeded capacity: " +
        std::to_string(server.flight().ring_size()) + " > " +
        std::to_string(options.flight.capacity));
  }
  if (server.flight().pinned_size() > options.flight.pinned_capacity) {
    report.violations.push_back(
        "flight recorder pinned set exceeded capacity: " +
        std::to_string(server.flight().pinned_size()) + " > " +
        std::to_string(options.flight.pinned_capacity));
  }

  if (!crash_dump.empty()) {
    // Post-mortem contract: die by SIGABRT with the dump handler
    // installed. The handler writes the retained ring as Chrome JSON to
    // `crash_dump` and re-raises with the default disposition, so the
    // process exits abnormally — ci.sh asserts both the nonzero status
    // and that the artifact parses.
    std::cout << "mcr_chaos: crash-test: raising SIGABRT with "
              << server.flight().ring_size() << " retained trace(s); dump -> "
              << crash_dump << std::endl;
    obs::install_fatal_dump(&server.flight(), crash_dump);
    std::raise(SIGABRT);
  }

  // Crash-only contract: shutdown must drain and join even while the
  // plan is still firing (a hang here fails the whole sweep).
  server.stop_and_drain();

#if defined(MCR_FAULT_INJECTION) && MCR_FAULT_INJECTION
  report.injections = injector.fired_count();
  report.trace = injector.trace_string();
  fault::Injector::install(nullptr);
#endif
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  cli::Options opt;
  int seeds = 8;
  int solves = 12;
  std::uint64_t seed_base = 1;
  std::size_t flight_capacity = 8;
  std::string crash_dump;
  fault::Plan base_plan;
  try {
    opt = cli::parse(argc, argv,
                     {"seeds", "seed-base", "solves", "plan", "repeat-check", "trace",
                      "flight", "crash-test"});
    seeds = static_cast<int>(opt.get_int_in("seeds", 8, 1, 100000));
    solves = static_cast<int>(opt.get_int_in("solves", 12, 1, 100000));
    seed_base = static_cast<std::uint64_t>(opt.get_int("seed-base", 1));
    flight_capacity =
        static_cast<std::size_t>(opt.get_int_in("flight", 8, 1, 1 << 20));
    crash_dump = opt.get("crash-test");
    base_plan = fault::Plan::parse(opt.get("plan", kDefaultPlan));
  } catch (const std::exception& e) {
    std::cerr << "mcr_chaos: " << e.what() << "\n"
              << "usage: mcr_chaos [--seeds N] [--seed-base B] [--solves N]\n"
              << "                 [--plan SPEC] [--repeat-check] [--trace]\n"
              << "                 [--flight N] [--crash-test PATH]\n";
    return 2;
  }

#if !defined(MCR_FAULT_INJECTION) || !MCR_FAULT_INJECTION
  std::cout << "mcr_chaos: fault hooks are compiled out of this build "
               "(configure with -DMCR_FAULT_INJECTION=ON);\n"
               "running the workload as a pure verification sweep.\n";
#endif

  const std::vector<Graph> graphs = make_graphs();
  std::vector<std::string> dimacs;
  dimacs.reserve(graphs.size());
  for (const Graph& g : graphs) dimacs.push_back(to_dimacs(g));

  int violations = 0;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    SeedReport report = run_seed(seed, base_plan, graphs, dimacs, solves, 0,
                                 flight_capacity, crash_dump);

    if (opt.has("repeat-check")) {
      const SeedReport again = run_seed(seed, base_plan, graphs, dimacs, solves, 1,
                                        flight_capacity, crash_dump);
      if (again.trace != report.trace) {
        report.violations.push_back(
            "non-deterministic injection trace across identical runs:\n  first:  " +
            report.trace + "\n  second: " + again.trace);
      }
      for (const std::string& v : again.violations) {
        report.violations.push_back("(repeat) " + v);
      }
    }

    std::cout << "seed " << report.seed << ": " << report.requests << " requests, "
              << report.ok << " ok, " << report.typed_errors << " typed errors, "
              << report.transport_failures << " transport failures, "
              << report.injections << " injections fired\n";
    if (opt.has("trace") && !report.trace.empty()) {
      std::cout << "  trace: " << report.trace << "\n";
    }
    for (const std::string& v : report.violations) {
      std::cout << "  VIOLATION: " << v << "\n";
      ++violations;
    }
  }

  if (violations > 0) {
    std::cout << "mcr_chaos: " << violations << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "mcr_chaos: all invariants held across " << seeds << " seed(s)\n";
  return 0;
}
