// solve_giant: in-process minimum_cycle_mean on single-SCC SPRAND graphs
// (m = 3n, weights U[1,10000]). The untraced run times every instance
// serially untiled (the library default); the traced run also solves it
// on 4 threads with tile_arcs = 2048 and breaks both into layers.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/verify.h"
#include "gen/sprand.h"
#include "graph/scc.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "proc.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct SolverCase {
  const char* solver;
  mcr::NodeId n;
  int instances;
};

constexpr SolverCase kCases[] = {
    {"howard", 16384, 6},
    {"karp2", 2048, 3},
    {"lawler", 1024, 2},
};

struct ThreadConfig {
  const char* label;
  int threads;
  std::int32_t tile_arcs;
};

// The untraced run times t1 only. On a shared VM the t4 solves flip
// between two regimes about 4x apart as host load changes (every tiled
// wave waits for all four vCPUs), so no per-run statistic of them is
// steady enough to gate; the traced run reports them per layer.
constexpr ThreadConfig kConfigs[] = {{"t1", 1, 0}, {"t4", 4, 2048}};
constexpr const ThreadConfig& kSerial = kConfigs[0];
constexpr int kSetupRepeats = 9;

mcr::Graph make_instance(const SolverCase& c, int instance) {
  mcr::gen::SprandConfig g;
  g.n = c.n;
  g.m = 3 * c.n;
  g.min_weight = 1;
  g.max_weight = 10000;
  g.seed = derive_seed(kSuiteSeed, 0x501e, static_cast<std::uint64_t>(c.n) * 64 +
                                         static_cast<std::uint64_t>(instance));
  return mcr::gen::sprand(g);
}

using Instances = std::vector<std::vector<mcr::Graph>>;  // [case][instance]

Instances build_all(Tracer& tracer) {
  Instances all;
  for (const SolverCase& c : kCases) {
    auto& list = all.emplace_back();
    for (int i = 0; i < c.instances; ++i) {
      const Tracer::Scope span(tracer, "gen::sprand", "gen");
      list.push_back(make_instance(c, i));
    }
  }
  return all;
}

mcr::SolveOptions options_for(const ThreadConfig& t) {
  mcr::SolveOptions o;
  o.num_threads = t.threads;
  o.tile_arcs = t.tile_arcs;
  return o;
}

bool same_result(const mcr::CycleResult& a, const mcr::CycleResult& b) {
  return a.has_cycle == b.has_cycle && a.value == b.value && a.cycle == b.cycle &&
         a.counters == b.counters;
}

/// Certifies one result. The graph's first result must pass
/// verify_result; every later one must be bit-identical to it (every
/// repeat, thread count and tiling gives the same answer), which
/// certifies it too without re-running the O(nm) check.
void check(const mcr::Graph& g, const mcr::CycleResult& r, const mcr::CycleResult*& first,
           Report& report, Tracer& tracer) {
  bool ok = false;
  if (first == nullptr) {
    const Tracer::Scope span(tracer, "verify_result", "core");
    ok = mcr::verify_result(g, r, mcr::ProblemKind::kCycleMean).ok;
    if (ok) first = &r;
  } else {
    ok = same_result(*first, r);
  }
  if (ok) {
    report.tally.ok();
  } else {
    report.tally.wrong_answer();
  }
}

void measure(const RunConfig& cfg, const Instances& graphs, Report& report, Tracer& tracer) {
  std::vector<mcr::CycleResult> results;  // certified after the timed loop
  results.reserve(4096);
  std::vector<std::pair<std::size_t, std::size_t>> owner;  // (case, instance) per result
  std::vector<std::vector<double>> times(std::size(kCases));  // ms per serial solve
  // Host-speed-adjusted CPU ms per serial solve, per [case][instance].
  std::vector<std::vector<std::vector<double>>> cpu(std::size(kCases));
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    cpu[ci].resize(static_cast<std::size_t>(kCases[ci].instances));
  }
  // Rounds visit every solver in turn, so each median spans the whole run
  // rather than one stretch of it; the run seed rotates the instance order.
  HostSpeedProbe probe;
  std::vector<double> probe_ms;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0; ms_since(start) < cfg.seconds * 1000.0; ++round) {
    // The host's speed drifts over seconds; a round takes about one.
    probe_ms.push_back(probe.cpu_ms());
    const double host_scale = kProbeReferenceMs / probe_ms.back();
    const std::uint64_t rotation = derive_seed(cfg.seed, 0x0d3, round);
    for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
      const SolverCase& c = kCases[ci];
      const auto count = static_cast<std::size_t>(c.instances);
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = (rotation + j) % count;
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = thread_cpu_seconds();
        mcr::CycleResult r = mcr::minimum_cycle_mean(graphs[ci][i], c.solver, options_for(kSerial));
        cpu[ci][i].push_back((thread_cpu_seconds() - cpu0) * 1000.0 * host_scale);
        const double ms = ms_since(t0);
        tracer.complete(std::string("minimum_cycle_mean ") + c.solver + ".t1", "core", t0, ms);
        times[ci].push_back(ms);
        results.push_back(std::move(r));
        owner.emplace_back(ci, i);
      }
    }
  }
  // Solves per CPU-second at the geometric mean, over the solvers, of the
  // geometric mean over each solver's instances of the median adjusted
  // CPU time per solve: a given speed-up of any one solver moves it
  // equally, and no median falls between two instances of different
  // difficulty (one size's SPRAND instances differ up to 4x). The serial
  // solve runs on this thread alone; its CPU time leaves out the time the
  // host took the vCPU away, and the probe takes out how fast the host
  // ran it.
  double log_sum = 0.0;
  std::string medians = "{";
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    double solver_log_sum = 0.0;
    for (const std::vector<double>& v : cpu[ci]) solver_log_sum += std::log(percentile(v, 0.5));
    const double solver_cpu_ms = std::exp(solver_log_sum / static_cast<double>(cpu[ci].size()));
    log_sum += std::log(solver_cpu_ms);
    medians += std::string(ci ? "," : "") + "\"" + kCases[ci].solver +
               "_ms.t1\":{\"wall_p50\":" + json_number(percentile(times[ci], 0.5)) +
               ",\"adjusted_cpu_geomean_of_p50s\":" + json_number(solver_cpu_ms) +
               ",\"samples\":" + std::to_string(times[ci].size()) + "}";
  }
  report.note("solve_ms", medians + "}");
  report.note("host_speed_probe", "{\"reference_ms\":" + json_number(kProbeReferenceMs) +
                                      ",\"p50_ms\":" + json_number(percentile(probe_ms, 0.5)) +
                                      ",\"samples\":" + std::to_string(probe_ms.size()) + "}");
  const double geomean_ms = std::exp(log_sum / static_cast<double>(std::size(kCases)));
  report.metric("ops_per_cpu_s", 1000.0 / geomean_ms, "1/s", results.size());
  // Outside the timed window: certify every result.
  std::map<std::pair<std::size_t, std::size_t>, const mcr::CycleResult*> first;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto [ci, i] = owner[k];
    check(graphs[ci][i], results[k], first[owner[k]], report, tracer);
  }
}

/// Per-layer breakdown: every instance solved once untraced and once
/// with the driver's trace and metrics hooks, per thread config.
void measure_layers(const Instances& graphs, Report& report, Tracer& tracer) {
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  mcr::obs::MetricsRegistry pool_metrics;  // t4 solves only
  std::size_t t4_solves = 0;
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    const SolverCase& c = kCases[ci];
    const std::string s = c.solver;
    std::map<std::string, double> phase_ms;  // "<phase>.<config>" -> summed ms
    std::map<std::string, std::vector<double>> plain_ms;  // untraced solve times per config
    double waves = 0.0;
    mcr::OpCounters ops;
    for (int i = 0; i < c.instances; ++i) {
      const mcr::Graph& g = graphs[ci][static_cast<std::size_t>(i)];
      const mcr::CycleResult* first = nullptr;
      std::vector<mcr::CycleResult> kept;  // reserved: `first` points into it
      kept.reserve(2 * std::size(kConfigs));
      for (const ThreadConfig& t : kConfigs) {
        Clock::time_point t0 = Clock::now();
        kept.push_back(mcr::minimum_cycle_mean(g, c.solver, options_for(t)));
        const double ms_plain = ms_since(t0);
        untraced_ms += ms_plain;
        plain_ms[t.label].push_back(ms_plain);
        check(g, kept.back(), first, report, tracer);

        mcr::obs::TraceRecorder recorder;
        const Clock::time_point recorder_t0 = Clock::now();
        mcr::obs::MetricsRegistry metrics;
        mcr::SolveOptions o = options_for(t);
        o.trace = &recorder;
        o.metrics = &metrics;
        t0 = Clock::now();
        kept.push_back(mcr::minimum_cycle_mean(g, c.solver, o));
        const double ms = ms_since(t0);
        traced_ms += ms;
        tracer.complete("minimum_cycle_mean " + s + "." + t.label + " (traced)", "core", t0, ms);
        tracer.import(recorder, recorder_t0);
        check(g, kept.back(), first, report, tracer);

        for (const auto& [phase, secs] : recorder.span_totals()) {
          phase_ms[phase + "." + t.label] += secs * 1000.0;
        }
        if (t.tile_arcs > 0) {
          const auto counters = metrics.counter_values();
          if (const auto it = counters.find("mcr_ops_tiles_waves_total"); it != counters.end()) {
            waves += static_cast<double>(it->second);
          }
          for (const auto& [name, value] : counters) {
            if (name.rfind("mcr_pool_", 0) == 0) pool_metrics.counter(name).add(value);
          }
          ++t4_solves;
        } else {
          ops += kept.back().counters;
        }
      }
    }
    const double n = c.instances;
    for (const char* phase : {"scc_decompose", "component", "merge", "witness_extract"}) {
      for (const ThreadConfig& t : kConfigs) {
        const std::string key = std::string(phase) + "." + t.label;
        const auto it = phase_ms.find(key);
        report.metric("core." + std::string(phase) + "_ms." + s + "." + t.label,
                      it == phase_ms.end() ? 0.0 : it->second / n, "ms", c.instances);
      }
    }
    for (const ThreadConfig& t : kConfigs) {
      const std::vector<double>& v = plain_ms[t.label];
      report.metric(s + "_ms." + t.label, percentile(v, 0.5), "ms", v.size());
    }
    report.metric("core.tiles.waves." + s, waves / n, "count");
    if (waves > 0.0) {
      report.metric("core.parallel_overhead_us_per_wave." + s,
                    (phase_ms["component.t4"] - phase_ms["component.t1"]) * 1000.0 / waves,
                    "us");
    } else {
      report.absent("core.parallel_overhead_us_per_wave." + s, "no tiled waves recorded");
    }
    report.metric("algo.ops." + s + ".iterations", static_cast<double>(ops.iterations) / n,
                  "count");
    report.metric("algo.ops." + s + ".relaxations", static_cast<double>(ops.relaxations) / n,
                  "count");
  }
  double tasks = 0.0;
  double steals = 0.0;
  double idle_us = 0.0;
  for (const auto& [name, value] : pool_metrics.counter_values()) {
    const double v = static_cast<double>(value);
    if (name.rfind("mcr_pool_tasks_total", 0) == 0) tasks += v;
    if (name.rfind("mcr_pool_steals_total", 0) == 0) steals += v;
    if (name.rfind("mcr_pool_idle_microseconds_total", 0) == 0) idle_us += v;
  }
  const double solves = static_cast<double>(std::max<std::size_t>(t4_solves, 1));
  report.metric("support.pool.tasks", tasks / solves, "count");
  report.metric("support.pool.steals", steals / solves, "count");
  report.metric("support.pool.idle_ms", idle_us / 1000.0 / solves, "ms");
  report.metric("obs.trace_overhead_pct", (traced_ms - untraced_ms) / untraced_ms * 100.0, "%");

  std::vector<double> scc_ms;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    const mcr::SccDecomposition d = mcr::strongly_connected_components(graphs[0][0]);
    scc_ms.push_back(ms_since(t0));
    tracer.complete("strongly_connected_components", "graph", t0, scc_ms.back());
    if (d.num_components != 1) report.tally.wrong_answer();
  }
  report.metric("graph.scc_ms.giant", percentile(scc_ms, 0.5), "ms", scc_ms.size());
}

}  // namespace

void run_solve_giant(const RunConfig& cfg, Report& report, Tracer& tracer) {
  // Set-up is input generation plus CSR build; repeated for a steady median.
  std::vector<double> setup_s;
  Instances graphs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    graphs = build_all(tracer);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  if (cfg.trace) {
    measure_layers(graphs, report, tracer);
    return;
  }
  report.metric("setup_s", percentile(setup_s, 0.5), "s", setup_s.size());
  measure(cfg, graphs, report, tracer);
  report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
  report.metric("ok_rate", report.tally.ok_rate(), "ratio");
}

}  // namespace perfbench
