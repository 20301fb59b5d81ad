// mcr_serve — the resident solve service daemon.
//
//   mcr_serve --socket /tmp/mcr.sock [--listen [HOST:]PORT] [--threads N]
//             [--tile-arcs N] [--queue K] [--batch N] [--cache N]
//             [--graphs N] [--max-frame BYTES] [--preload FILE]...
//             [--dataset FILE.mcrpack]
//             [--trace FILE] [--slow-ms MS] [--trace-sample P]
//             [--flight N] [--flight-pinned N] [--flight-dump PATH]
//             [--log-json PATH] [--window SECONDS] [--window-slots N]
//             [--stats-interval SECONDS] [--stats-out PATH]
//
//   --socket PATH    Unix-domain listener (the normal deployment)
//   --listen [HOST:]PORT  additional TCP listener; HOST defaults to
//                    127.0.0.1 (use 0.0.0.0 to sit behind an mcr_router
//                    on another host). PORT 0 = ephemeral; the bound
//                    port is printed
//   --threads N      worker threads per dispatched solve (0 = hardware)
//   --tile-arcs N    arc-tile granularity for intra-SCC parallelism in
//                    dispatched solves (0 = untiled; bit-identical
//                    results for any value)
//   --queue K        admission bound: at most K solves admitted and
//                    unfinished; beyond that SOLVE answers BUSY
//   --batch N        max requests coalesced into one dispatch batch
//   --cache N        LRU result-cache entries
//   --graphs N       LRU resident-graph entries
//   --max-frame B    reject request frames larger than B bytes
//   --preload FILE   load a DIMACS file into the registry at startup
//                    (repeatable via comma-separated list)
//   --dataset FILE   attach a .mcrpack dataset at startup (mmap'd
//                    zero-copy; the RELOAD verb or SIGHUP hot-swaps to
//                    a new generation without dropping requests — see
//                    docs/STORAGE.md)
//   --trace FILE     write a Chrome/Perfetto trace on exit
//   --slow-ms MS     pin request traces at least this slow (0 pins all,
//                    -1 disables slow-pinning; errors always pin)
//   --trace-sample P head-sampling probability in [0,1] for full-detail
//                    solver spans in retained request traces
//   --flight N       flight-recorder ring capacity (recent traces)
//   --flight-pinned N  pinned-trace capacity (slow/errored)
//   --flight-dump PATH post-mortem ring dump on a fatal signal
//                    ("none" disables; default mcr_flight_dump.json)
//   --log-json PATH  per-request JSONL access log (default off)
//   --window S       sliding telemetry window in seconds (default 60)
//   --window-slots N ring sub-windows per window (default 6)
//   --stats-interval S  emit one telemetry snapshot line every S seconds
//   --stats-out PATH    JSONL file for snapshot lines (pump runs only
//                    when both --stats-interval and --stats-out are set)
//   --version        print build provenance and exit
//
// The flight recorder itself is always on: the TRACE verb serves the
// recent/pinned request traces of a live daemon as Perfetto-loadable
// Chrome JSON. See docs/OBSERVABILITY.md.
//
// SIGTERM / SIGINT drain gracefully: stop accepting, finish every
// in-flight request, then exit 0. SIGHUP re-attaches the current
// --dataset path (pick up a republished pack without a restart); it is
// ignored when no dataset is attached. Protocol reference:
// docs/SERVICE.md.
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli.h"
#include "obs/build_info.h"
#include "obs/trace_recorder.h"
#include "svc/router.h"
#include "svc/server.h"

namespace {

constexpr const char* kUsage =
    "usage: mcr_serve --socket PATH [--listen [HOST:]PORT] [--threads N]\n"
    "                 [--tile-arcs N] [--queue K] [--batch N]\n"
    "                 [--cache N] [--graphs N]\n"
    "                 [--max-frame BYTES] [--preload FILE[,FILE...]]\n"
    "                 [--dataset FILE.mcrpack]\n"
    "                 [--trace FILE] [--slow-ms MS] [--trace-sample P]\n"
    "                 [--flight N] [--flight-pinned N]\n"
    "                 [--flight-dump PATH] [--log-json PATH]\n"
    "                 [--window SECONDS] [--window-slots N]\n"
    "                 [--stats-interval SECONDS] [--stats-out PATH]\n"
    "                 [--version]\n";

// Self-pipe: the handler only writes one byte; the main thread blocks
// on the read end and runs the (non-async-signal-safe) drain.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], "x", 1);
}

void on_sighup(int) {
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], "h", 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt =
        cli::parse(argc, argv,
                   {"socket", "listen", "threads", "tile-arcs", "queue", "batch", "cache",
                    "graphs", "max-frame", "preload", "dataset", "trace", "slow-ms",
                    "trace-sample", "flight", "flight-pinned", "flight-dump", "log-json",
                    "window", "window-slots", "stats-interval", "stats-out", "version"});
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_serve");
      return 0;
    }
    if (!opt.positional.empty() || (!opt.has("socket") && !opt.has("listen"))) {
      std::cerr << kUsage;
      return 2;
    }

    obs::TraceRecorder recorder;
    svc::ServerOptions so;
    so.unix_socket_path = opt.get("socket");
    if (opt.has("listen")) {
      const svc::BackendAddress listen =
          svc::parse_backend_address(opt.get("listen"), /*allow_port_zero=*/true);
      if (listen.kind != svc::BackendAddress::Kind::kTcp) {
        std::cerr << "mcr_serve: --listen expects [HOST:]PORT\n";
        return 2;
      }
      so.tcp_bind_host = listen.host;
      so.tcp_port = listen.port;
    }
    so.solve_threads = static_cast<int>(opt.get_int_in("threads", 0, 0, 4096));
    so.solve_tile_arcs =
        static_cast<std::int32_t>(opt.get_int_in("tile-arcs", 0, 0, 1 << 30));
    so.queue_capacity =
        static_cast<std::size_t>(opt.get_int_in("queue", 64, 1, 1 << 20));
    so.batch_max = static_cast<std::size_t>(opt.get_int_in("batch", 32, 1, 4096));
    so.cache_entries =
        static_cast<std::size_t>(opt.get_int_in("cache", 1024, 1, 1 << 24));
    so.graph_entries =
        static_cast<std::size_t>(opt.get_int_in("graphs", 64, 1, 1 << 20));
    so.max_frame_bytes = static_cast<std::size_t>(opt.get_int_in(
        "max-frame", static_cast<std::int64_t>(svc::kDefaultMaxFrameBytes), 1024,
        1 << 30));
    if (opt.has("trace")) so.trace = &recorder;
    so.flight.capacity =
        static_cast<std::size_t>(opt.get_int_in("flight", 256, 1, 1 << 20));
    so.flight.pinned_capacity =
        static_cast<std::size_t>(opt.get_int_in("flight-pinned", 64, 1, 1 << 20));
    so.flight.slow_ms = opt.get_double("slow-ms", 250.0);
    so.flight.sample_rate = opt.get_double("trace-sample", 0.0);
    if (so.flight.sample_rate < 0.0 || so.flight.sample_rate > 1.0) {
      std::cerr << "mcr_serve: --trace-sample must be in [0,1]\n";
      return 2;
    }
    so.request_log_path = opt.get("log-json");
    so.stats_window_s = opt.get_double("window", 60.0);
    so.stats_window_slots =
        static_cast<std::size_t>(opt.get_int_in("window-slots", 6, 2, 600));
    so.stats_interval_s = opt.get_double("stats-interval", 0.0);
    so.stats_out_path = opt.get("stats-out");
    so.dataset_path = opt.get("dataset");
    if (so.stats_window_s <= 0.0) {
      std::cerr << "mcr_serve: --window must be positive\n";
      return 2;
    }

    // Handlers go in BEFORE the server exists: a supervisor can deliver
    // SIGTERM while the daemon is still preloading, attaching its dataset
    // or binding, and the default action would skip stop_and_drain()
    // (dropping in-flight work, orphaning the socket file). With the pipe
    // armed first, an early signal makes the wait loop below return at
    // once and the drain path still runs.
    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "mcr_serve: cannot create signal pipe\n";
      return 1;
    }
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGHUP, on_sighup);

    svc::Server server(so);
    const std::string dump_path = opt.get("flight-dump", "mcr_flight_dump.json");
    if (dump_path != "none") {
      obs::install_fatal_dump(&server.flight(), dump_path);
    }
    for (const std::string& file : cli::split_csv(opt.get("preload"))) {
      std::cout << "preload: " << file << " -> " << server.preload_dimacs_file(file)
                << "\n";
    }
    server.start();
    if (const auto ds = server.dataset(); ds != nullptr) {
      std::cout << "dataset: " << ds->path << " -> " << ds->fingerprint
                << " (generation " << ds->generation << ", " << ds->graph->num_nodes()
                << " nodes, " << ds->graph->num_arcs() << " arcs)\n";
    }
    if (!so.unix_socket_path.empty()) {
      std::cout << "mcr_serve: listening on unix:" << so.unix_socket_path << "\n";
    }
    if (so.tcp_port >= 0) {
      std::cout << "mcr_serve: listening on tcp:" << so.tcp_bind_host << ":"
                << server.tcp_port() << "\n";
    }
    std::cout << "mcr_serve: ready (queue " << so.queue_capacity << ", cache "
              << so.cache_entries << " entries, batch <= " << so.batch_max << ")"
              << std::endl;

    for (;;) {
      char byte = 0;
      const ssize_t got = ::read(g_signal_pipe[0], &byte, 1);
      if (got < 0) continue;  // EINTR: retry and pick up the handler's byte
      if (got == 0) break;
      if (byte != 'h') break;  // SIGTERM/SIGINT: fall through to drain
      // SIGHUP: hot-swap to the current dataset path. A bad pack (or no
      // dataset) must not take the daemon down — log and keep serving.
      try {
        const auto ds = server.reload_dataset();
        std::cout << "mcr_serve: reloaded " << ds->path << " -> " << ds->fingerprint
                  << " (generation " << ds->generation << ")" << std::endl;
      } catch (const std::exception& e) {
        std::cerr << "mcr_serve: reload failed: " << e.what() << std::endl;
      }
    }

    std::cout << "mcr_serve: signal received, draining" << std::endl;
    server.stop_and_drain();
    if (opt.has("trace")) {
      std::ofstream out(opt.get("trace"));
      if (out) recorder.write_chrome_trace(out);
    }
    std::cout << "mcr_serve: drained, exiting" << std::endl;
    return 0;
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_serve: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_serve: " << e.what() << "\n";
    return 1;
  }
}
