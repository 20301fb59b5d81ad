// The mcr solve service: a resident server over the solver stack.
//
// Architecture (docs/SERVICE.md has the full protocol reference):
//
//   FrameListener ──▶ one thread per connection ──▶ bounded job queue
//   (svc/listener.h)   (handle_request: cache/single-  (capacity K,
//                       flight admission)               BUSY beyond)
//                                                          │
//   deadline watchdog ◀── arms cancel tokens        dispatcher thread
//                                                   (drains the queue in
//                                                    batches, groups by
//                                                    (algorithm, objective),
//                                                    solve_many on the
//                                                    work-stealing pool)
//
// Request lifecycle for SOLVE: resolve the graph (content fingerprint
// via the GraphRegistry), consult the ResultCache (hit → answer from
// memory; identical request in flight → join it), otherwise become the
// flight leader and enter the bounded queue. Admission counts every
// admitted-but-unfinished solve: at capacity the request is rejected
// immediately with BUSY (explicit backpressure — the client decides
// whether to retry; nothing hangs, nothing is silently dropped).
//
// Shutdown (stop_and_drain, wired to SIGTERM in mcr_serve): stop
// accepting, half-close existing connections so no new requests enter,
// finish every in-flight request, then retire the dispatcher and
// watchdog. In-flight work is never abandoned.
#ifndef MCR_SVC_SERVER_H
#define MCR_SVC_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "store/dataset_watcher.h"
#include "svc/cache.h"
#include "svc/graph_registry.h"
#include "svc/listener.h"
#include "svc/protocol.h"
#include "svc/request_log.h"

namespace mcr::json {
class Value;
}  // namespace mcr::json

namespace mcr::svc {

/// Listener fields (socket path, TCP port/host, frame cap, idle
/// timeout) come from ListenerOptions.
struct ServerOptions : ListenerOptions {
  /// SolveOptions::num_threads for dispatched solves (0 = hardware).
  int solve_threads = 0;
  /// SolveOptions::tile_arcs for dispatched solves: arc-tile granularity
  /// for intra-SCC parallelism (0 = untiled). Results are bit-identical
  /// for any value; only throughput and mcr_ops_tiles_* change.
  std::int32_t solve_tile_arcs = 0;
  /// Admission bound: max solve requests admitted and not yet finished
  /// (queued + executing). Beyond it, SOLVE is rejected with BUSY.
  std::size_t queue_capacity = 64;
  /// Max jobs one dispatcher batch pulls from the queue.
  std::size_t batch_max = 32;
  /// ResultCache entries (LRU).
  std::size_t cache_entries = 1024;
  /// GraphRegistry entries (LRU).
  std::size_t graph_entries = 64;
  /// Optional trace sink: per-request kRequest spans plus the usual
  /// driver/solver spans from dispatched solves.
  obs::TraceSink* trace = nullptr;
  /// Flight recorder tuning (ring/pinned capacities, slow-pin
  /// threshold, head-sampling rate). The recorder itself is always on:
  /// every request records its queue/dispatch/solve outline into a
  /// bounded per-request trace, retained per these options.
  obs::FlightRecorder::Options flight{};
  /// Per-request JSONL access log path; empty (the default) disables.
  std::string request_log_path;
  /// Sliding-window telemetry shape for the windowed
  /// mcr_request_seconds family: the nominal window the live view
  /// covers and the number of ring sub-windows it rotates through.
  /// Consumed by STATS {"window":true}, the stats pump, and
  /// `mcr_query top`.
  double stats_window_s = 60.0;
  std::size_t stats_window_slots = 6;
  /// Periodic snapshot pump: every `stats_interval_s` seconds (and once
  /// more at drain) one JSON line — windowed per-verb percentiles,
  /// saturation gauges, counter deltas since the previous line — is
  /// appended to `stats_out_path`. The pump runs only when the interval
  /// is positive AND the path is set.
  double stats_interval_s = 0.0;
  std::string stats_out_path;
  /// .mcrpack dataset to attach at start() (mmap'd zero-copy, see
  /// docs/STORAGE.md). Empty disables. The attached graph is registered
  /// in the GraphRegistry under its content fingerprint; RELOAD (and
  /// SIGHUP in mcr_serve) hot-swaps to a new generation without
  /// interrupting in-flight solves.
  std::string dataset_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Drains (as stop_and_drain) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches the dataset, opens the stats output, binds the configured
  /// listeners and spawns the service threads. Throws when any step
  /// fails, leaving no bound socket file or listener fd behind; the
  /// server may then be started again.
  void start();

  /// Graceful shutdown: stop accepting, complete every in-flight
  /// request, join all threads, remove the unix socket file.
  /// Idempotent; safe to call from any thread except a handler's.
  void stop_and_drain();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// Actual TCP port after start() (useful with tcp_port = 0).
  [[nodiscard]] int tcp_port() const { return listener_.tcp_port(); }

  /// Loads a DIMACS file into the registry (the --preload path in
  /// mcr_serve); returns the fingerprint. Call before or after start().
  std::string preload_dimacs_file(const std::string& path);

  /// Attaches (or hot-swaps to) the pack at `path`: validates it,
  /// publishes it as the next dataset generation, and registers its
  /// zero-copy graph in the registry. Throws store::PackError on a bad
  /// pack, in which case the current generation keeps serving. Thread-
  /// safe; this is what the RELOAD verb and SIGHUP call.
  std::shared_ptr<const store::Dataset> attach_dataset(const std::string& path);

  /// Re-attaches the currently attached dataset path (the SIGHUP
  /// no-argument reload). Throws std::runtime_error when no dataset has
  /// ever been attached.
  std::shared_ptr<const store::Dataset> reload_dataset();

  /// The currently published dataset generation; nullptr when the
  /// server runs without --dataset.
  [[nodiscard]] std::shared_ptr<const store::Dataset> dataset() const {
    return dataset_.current();
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] GraphRegistry& graphs() { return graphs_; }
  [[nodiscard]] ResultCache& cache() { return cache_; }
  /// The always-on per-request trace retainer (TRACE verb source,
  /// post-mortem dump payload).
  [[nodiscard]] obs::FlightRecorder& flight() { return flight_; }

  /// One snapshot line of the stats pump's JSONL time series (ts,
  /// uptime, windowed per-verb percentiles, gauges, counter deltas
  /// since the previous call). Stateful: each call advances the delta
  /// baseline. Exposed so tests can drive the pump synchronously.
  [[nodiscard]] std::string telemetry_snapshot_json();

 private:
  /// Everything one request accumulates for the flight recorder, the
  /// access log, and the per-verb latency metrics. Lives on the
  /// connection thread's stack for the request's duration.
  struct RequestContext {
    std::string trace_id;
    std::string parent_span;
    std::string verb = "INVALID";
    std::shared_ptr<obs::RequestTrace> trace;
    std::string fingerprint;
    std::string algo;
    std::string objective;
    std::string cache;  // "hit" | "miss" | "join" | ""
    double queue_ms = -1.0;
    double solve_ms = -1.0;
    double deadline_ms = -1.0;
    std::string error_code;  // protocol code; "" = ok
  };
  struct SolveJob {
    CacheKey key;
    std::shared_ptr<const Graph> graph;
    bool maximize = false;
    bool ratio = false;
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Flight-recorder wiring: the requesting trace (always set by the
    /// leader) plus admission time, so the dispatcher can retro-date
    /// the queue-wait span from its pickup site.
    std::shared_ptr<obs::RequestTrace> trace;
    double enqueue_us = 0.0;
    double queue_wait_ms = -1.0;  // written by the dispatcher at pickup
    // Completion channel (leader connection thread waits here).
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    CycleResult result;
    double solve_ms = 0.0;
    std::string error_code;
    std::string error_message;
  };
  void dispatch_loop();
  void watchdog_loop();
  void stats_loop();

  [[nodiscard]] std::string handle_request(const std::string& payload);
  [[nodiscard]] std::string handle_load(const json::Value& req,
                                        RequestContext& ctx);
  [[nodiscard]] std::string handle_solve(const json::Value& req,
                                         RequestContext& ctx);
  [[nodiscard]] std::string handle_solvers() const;
  [[nodiscard]] std::string handle_stats(const json::Value& req) const;
  [[nodiscard]] std::string handle_health();
  [[nodiscard]] std::string handle_trace(const json::Value& req) const;
  [[nodiscard]] std::string handle_reload(const json::Value& req,
                                          RequestContext& ctx);

  /// Tail of handle_request: finishes the flight-recorder trace, writes
  /// the access-log line, and meters the request latency.
  void finish_request(RequestContext& ctx, double total_ms);

  /// Parses the request's graph source ("fingerprint" | "dimacs" |
  /// "path" | "generator") and returns (resident graph, fingerprint).
  /// Throws std::runtime_error with a client-facing message.
  std::pair<std::shared_ptr<const Graph>, std::string> resolve_graph(
      const json::Value& req);

  void process_batch(std::vector<std::shared_ptr<SolveJob>>& batch);
  void solve_single(SolveJob& job);
  void complete_ok(SolveJob& job, const CycleResult& result, double solve_ms);
  void complete_error(SolveJob& job, const std::string& code,
                      const std::string& message);
  void fulfill(SolveJob& job);
  void arm_deadline(const std::shared_ptr<SolveJob>& job);

  ServerOptions options_;
  obs::MetricsRegistry metrics_;
  GraphRegistry graphs_;
  store::DatasetWatcher dataset_;
  ResultCache cache_;
  obs::FlightRecorder flight_;
  std::unique_ptr<RequestLog> request_log_;
  RequestMeter meter_;

  std::atomic<bool> running_{false};
  /// Set (and never cleared) once stop_and_drain begins, *before*
  /// running_ flips — so observing running() == false implies the drain
  /// guard is already up. attach_dataset refuses new generations after
  /// this point: a SIGHUP/RELOAD racing the drain must not publish a
  /// dataset that nothing will ever serve (see test_svc
  /// ReloadDuringDrainIsRefused).
  std::atomic<bool> draining_{false};
  /// Steady-clock ns of the most recent solve completion (ok or error);
  /// -1 until the first one. HEALTH reports its age.
  std::atomic<std::int64_t> last_solve_steady_ns_{-1};

  std::thread dispatch_thread_;
  std::thread watchdog_thread_;
  std::thread stats_thread_;

  std::mutex stats_mutex_;
  std::condition_variable stats_cv_;
  bool stopping_stats_ = false;
  std::ofstream stats_out_;
  /// Counter baseline for the pump's per-line deltas; touched only by
  /// telemetry_snapshot_json (pump thread, or a test driving it).
  std::map<std::string, std::uint64_t> stats_prev_counters_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<SolveJob>> queue_;
  std::size_t in_flight_ = 0;  // admitted, not yet fulfilled
  std::size_t queue_depth_highwater_ = 0;  // deepest queue since start
  bool stopping_ = false;          // refuse new admissions
  bool stopping_dispatch_ = false; // dispatcher exits once queue empty

  std::mutex deadline_mutex_;
  std::condition_variable deadline_cv_;
  std::vector<std::pair<std::chrono::steady_clock::time_point,
                        std::weak_ptr<std::atomic<bool>>>>
      deadlines_;
  bool stopping_watchdog_ = false;

  /// Declared last: destroyed first, so its drain joins every
  /// connection thread while the state above is still alive.
  FrameListener listener_;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_SERVER_H
