// The metrics every run prints, as BENCHMARK.json declares them.
//
// An untraced run prints every end-to-end metric and a traced run every
// per-layer metric, whatever the workload. Each metric names the
// workloads that measure it; on any other workload it reads 0, because
// that workload never enters the layer (no router, no queue, no tiled
// solve): nothing was spent or counted there. run.py checks the printed
// set against BENCHMARK.json.
#ifndef PERFBENCH_MANIFEST_H
#define PERFBENCH_MANIFEST_H

#include <string>

namespace perfbench {

enum WorkloadBit : unsigned {
  kSolveGiant = 1U,
  kServeWarm = 2U,
  kFleetMixed = 4U,
  kServices = kServeWarm | kFleetMixed,
  kEvery = kSolveGiant | kServeWarm | kFleetMixed,
};

/// The bit of a workload name; 0 for an unknown name.
[[nodiscard]] unsigned workload_bit(const std::string& workload);

struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned measured_on;  // WorkloadBit mask
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", kEvery},
    {"peak_rss_mb", "MiB", kEvery},
    {"ok_rate", "ratio", kEvery},
    {"ops_per_cpu_s", "1/s", kEvery},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"howard_ms.t1", "ms", kSolveGiant},
    {"karp2_ms.t1", "ms", kSolveGiant},
    {"lawler_ms.t1", "ms", kSolveGiant},
    {"howard_ms.t4", "ms", kSolveGiant},
    {"karp2_ms.t4", "ms", kSolveGiant},
    {"lawler_ms.t4", "ms", kSolveGiant},
    {"latency_ms_p50", "ms", kServices},
    {"latency_ms_p99", "ms", kServices},
    {"gen.generate_ms.n256", "ms", kServeWarm},
    {"gen.generate_ms.n4096", "ms", kServeWarm},
    {"gen.generate_ms.n16384", "ms", kServeWarm},
    {"graph.build_ms.n256", "ms", kServeWarm},
    {"graph.build_ms.n4096", "ms", kServeWarm},
    {"graph.build_ms.n16384", "ms", kServeWarm},
    {"graph.fingerprint_ms.n256", "ms", kServeWarm},
    {"graph.fingerprint_ms.n4096", "ms", kServeWarm},
    {"graph.fingerprint_ms.n16384", "ms", kServeWarm},
    {"graph.scc_ms.giant", "ms", kSolveGiant | kFleetMixed},
    {"graph.scc_ms.circuit", "ms", kFleetMixed},
    {"core.scc_decompose_ms.howard.t1", "ms", kSolveGiant},
    {"core.scc_decompose_ms.howard.t4", "ms", kSolveGiant},
    {"core.scc_decompose_ms.karp2.t1", "ms", kSolveGiant},
    {"core.scc_decompose_ms.karp2.t4", "ms", kSolveGiant},
    {"core.scc_decompose_ms.lawler.t1", "ms", kSolveGiant},
    {"core.scc_decompose_ms.lawler.t4", "ms", kSolveGiant},
    {"core.component_ms.howard.t1", "ms", kSolveGiant},
    {"core.component_ms.howard.t4", "ms", kSolveGiant},
    {"core.component_ms.karp2.t1", "ms", kSolveGiant},
    {"core.component_ms.karp2.t4", "ms", kSolveGiant},
    {"core.component_ms.lawler.t1", "ms", kSolveGiant},
    {"core.component_ms.lawler.t4", "ms", kSolveGiant},
    {"core.merge_ms.howard.t1", "ms", kSolveGiant},
    {"core.merge_ms.howard.t4", "ms", kSolveGiant},
    {"core.merge_ms.karp2.t1", "ms", kSolveGiant},
    {"core.merge_ms.karp2.t4", "ms", kSolveGiant},
    {"core.merge_ms.lawler.t1", "ms", kSolveGiant},
    {"core.merge_ms.lawler.t4", "ms", kSolveGiant},
    {"core.witness_extract_ms.howard.t1", "ms", kSolveGiant},
    {"core.witness_extract_ms.howard.t4", "ms", kSolveGiant},
    {"core.witness_extract_ms.karp2.t1", "ms", kSolveGiant},
    {"core.witness_extract_ms.karp2.t4", "ms", kSolveGiant},
    {"core.witness_extract_ms.lawler.t1", "ms", kSolveGiant},
    {"core.witness_extract_ms.lawler.t4", "ms", kSolveGiant},
    {"core.tiles.waves.howard", "count", kSolveGiant},
    {"core.tiles.waves.karp2", "count", kSolveGiant},
    {"core.tiles.waves.lawler", "count", kSolveGiant},
    {"core.parallel_overhead_us_per_wave.howard", "us", kSolveGiant},
    {"core.parallel_overhead_us_per_wave.karp2", "us", kSolveGiant},
    {"core.parallel_overhead_us_per_wave.lawler", "us", kSolveGiant},
    {"support.pool.tasks", "count", kSolveGiant},
    {"support.pool.steals", "count", kSolveGiant},
    {"support.pool.idle_ms", "ms", kSolveGiant},
    {"algo.ops.howard.iterations", "count", kSolveGiant},
    {"algo.ops.howard.relaxations", "count", kSolveGiant},
    {"algo.ops.karp2.iterations", "count", kSolveGiant},
    {"algo.ops.karp2.relaxations", "count", kSolveGiant},
    {"algo.ops.lawler.iterations", "count", kSolveGiant},
    {"algo.ops.lawler.relaxations", "count", kSolveGiant},
    {"svc.server_ms_p50.ping", "ms", kServeWarm},
    {"svc.server_ms_p50.solve_gen", "ms", kServeWarm},
    {"svc.server_ms_p50.solve_fp", "ms", kServeWarm},
    {"svc.transport_us.ping", "us", kServeWarm},
    {"svc.hit_ms_p50.n256", "ms", kServeWarm},
    {"svc.hit_ms_p50.n4096", "ms", kServeWarm},
    {"svc.hit_ms_p50.n16384", "ms", kServeWarm},
    {"svc.queue_ms_p50", "ms", kFleetMixed},
    {"svc.queue_ms_p99", "ms", kFleetMixed},
    {"svc.solve_ms_p50", "ms", kFleetMixed},
    {"svc.batch_occupancy", "jobs", kFleetMixed},
    {"svc.busy_rejects", "count", kFleetMixed},
    {"svc.cache_hit_ratio", "ratio", kServices},
    {"router.hop_us.ping", "us", kFleetMixed},
    {"router.hop_us.solve_fp", "us", kFleetMixed},
    {"router.failovers", "count", kFleetMixed},
    {"router.breaker_opens", "count", kFleetMixed},
    {"router.replica_skew", "ratio", kFleetMixed},
    {"store.attach_ms", "ms", kFleetMixed},
    {"obs.trace_overhead_pct", "%", kEvery},
    {"harness.send_lag_ms_p99", "ms", kServices},
    {"harness.cpu_util", "ratio", kServices},
    {"harness.cold_cached", "count", kServices},
    {"harness.warm_missed", "count", kServices},
};

}  // namespace perfbench

#endif  // PERFBENCH_MANIFEST_H
