// mcr_router — fault-tolerant front-end for a fleet of mcr_serve
// workers (docs/FLEET.md).
//
//   mcr_router --socket /tmp/router.sock [--listen [HOST:]PORT]
//              --worker unix:/tmp/w1.sock --worker 127.0.0.1:9301 ...
//              [--replicas R] [--vnodes N] [--attempts N]
//              [--probe-interval-ms MS] [--pool N] [--max-frame BYTES]
//              [--breaker-failures N] [--breaker-cooldown-ms MS]
//              [--breaker-cooldown-max-ms MS]
//              [--window SECONDS] [--window-slots N]
//
//   --socket PATH       Unix-domain listener for clients
//   --listen [HOST:]PORT  TCP listener (0 = ephemeral, printed; HOST
//                       defaults to 127.0.0.1)
//   --worker SPEC       one backend: unix:PATH, HOST:PORT, or PORT
//                       (repeatable; at least one required)
//   --replicas R        replication factor: each graph fingerprint maps
//                       to R distinct workers (default 2)
//   --vnodes N          virtual nodes per worker on the hash ring
//   --attempts N        failover budget: max forward attempts per
//                       request across replicas (default 3)
//   --probe-interval-ms MS  active HEALTH probe period, jittered
//                       +/-25% (default 500; 0 disables probing)
//   --pool N            idle upstream connections kept per backend
//   --max-frame B       reject frames larger than B bytes
//   --breaker-failures N     consecutive failures that open a breaker
//   --breaker-cooldown-ms MS initial open cooldown (doubles, jittered)
//   --breaker-cooldown-max-ms MS  cooldown cap
//   --window S / --window-slots N  windowed per-backend latency shape
//   --version           print build provenance and exit
//
// Clients speak the ordinary MCR1 protocol to the router. SOLVE/LOAD
// requests shard by graph fingerprint with consistent hashing; LOAD
// fans out to all R replicas; STATS/HEALTH are answered by the router
// itself (STATS {"fanout":true} embeds every worker's STATS); RELOAD
// fans out once to every healthy worker, never retried. Idempotent
// verbs fail over to the next replica on BUSY / SHUTTING_DOWN / clean
// transport errors — never after partial response bytes.
//
// SIGTERM / SIGINT drain gracefully: stop accepting, finish in-flight
// client requests, exit 0.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli.h"
#include "obs/build_info.h"
#include "svc/router.h"

namespace {

constexpr const char* kUsage =
    "usage: mcr_router --socket PATH [--listen [HOST:]PORT]\n"
    "                  --worker SPEC [--worker SPEC ...]\n"
    "                  [--replicas R] [--vnodes N] [--attempts N]\n"
    "                  [--probe-interval-ms MS] [--pool N]\n"
    "                  [--max-frame BYTES] [--breaker-failures N]\n"
    "                  [--breaker-cooldown-ms MS]\n"
    "                  [--breaker-cooldown-max-ms MS]\n"
    "                  [--window SECONDS] [--window-slots N] [--version]\n"
    "       SPEC is unix:PATH, HOST:PORT, or PORT\n";

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], "x", 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt =
        cli::parse(argc, argv,
                   {"socket", "listen", "worker", "replicas", "vnodes", "attempts",
                    "probe-interval-ms", "pool", "max-frame", "breaker-failures",
                    "breaker-cooldown-ms", "breaker-cooldown-max-ms", "window",
                    "window-slots", "version"});
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_router");
      return 0;
    }
    const std::vector<std::string> worker_specs = opt.get_all("worker");
    if (!opt.positional.empty() || worker_specs.empty() ||
        (!opt.has("socket") && !opt.has("listen"))) {
      std::cerr << kUsage;
      return 2;
    }

    svc::RouterOptions ro;
    ro.unix_socket_path = opt.get("socket");
    if (opt.has("listen")) {
      const svc::BackendAddress listen =
          svc::parse_backend_address(opt.get("listen"), /*allow_port_zero=*/true);
      if (listen.kind != svc::BackendAddress::Kind::kTcp) {
        std::cerr << "mcr_router: --listen expects [HOST:]PORT\n";
        return 2;
      }
      ro.tcp_bind_host = listen.host;
      ro.tcp_port = listen.port;
    }
    for (const std::string& spec : worker_specs) {
      ro.workers.push_back(svc::parse_backend_address(spec));
    }
    ro.replicas = static_cast<std::size_t>(opt.get_int_in("replicas", 2, 1, 64));
    ro.virtual_nodes = static_cast<std::size_t>(opt.get_int_in("vnodes", 64, 1, 4096));
    ro.max_attempts = static_cast<int>(opt.get_int_in("attempts", 3, 1, 64));
    ro.probe_interval_ms = opt.get_double("probe-interval-ms", 500.0);
    ro.pool_capacity = static_cast<std::size_t>(opt.get_int_in("pool", 8, 0, 4096));
    ro.max_frame_bytes = static_cast<std::size_t>(opt.get_int_in(
        "max-frame", static_cast<std::int64_t>(svc::kDefaultMaxFrameBytes), 1024,
        1 << 30));
    ro.breaker.failure_threshold =
        static_cast<int>(opt.get_int_in("breaker-failures", 3, 1, 1000));
    ro.breaker.cooldown_initial_ms = opt.get_double("breaker-cooldown-ms", 250.0);
    ro.breaker.cooldown_max_ms = opt.get_double("breaker-cooldown-max-ms", 5000.0);
    ro.stats_window_s = opt.get_double("window", 60.0);
    ro.stats_window_slots =
        static_cast<std::size_t>(opt.get_int_in("window-slots", 6, 2, 600));
    if (ro.stats_window_s <= 0.0) {
      std::cerr << "mcr_router: --window must be positive\n";
      return 2;
    }
    if (ro.breaker.cooldown_initial_ms <= 0.0 ||
        ro.breaker.cooldown_max_ms < ro.breaker.cooldown_initial_ms) {
      std::cerr << "mcr_router: breaker cooldowns must satisfy "
                   "0 < initial <= max\n";
      return 2;
    }

    // Handlers go in BEFORE start(): a supervisor restarting quickly can
    // deliver SIGTERM during startup, and the default action would skip
    // stop_and_drain() (dropping in-flight work, orphaning the socket
    // file). With the pipe armed first, an early signal simply makes the
    // wait loop below return immediately and the drain path still runs.
    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "mcr_router: cannot create signal pipe\n";
      return 1;
    }
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    svc::Router router(std::move(ro));
    router.start();
    // Read back the (possibly moved-from) config via the router itself.
    if (opt.has("socket")) {
      std::cout << "mcr_router: listening on unix:" << opt.get("socket") << "\n";
    }
    if (router.tcp_port() >= 0) {
      std::cout << "mcr_router: listening on tcp port " << router.tcp_port() << "\n";
    }
    for (const std::string& spec : worker_specs) {
      std::cout << "mcr_router: worker " << spec << "\n";
    }
    std::cout << "mcr_router: ready (" << worker_specs.size() << " workers, replicas "
              << opt.get_int("replicas", 2) << ", attempts "
              << opt.get_int("attempts", 3) << ")" << std::endl;

    for (;;) {
      char byte = 0;
      const ssize_t got = ::read(g_signal_pipe[0], &byte, 1);
      if (got < 0) continue;  // EINTR
      break;
    }
    std::cout << "mcr_router: signal received, draining" << std::endl;
    router.stop_and_drain();
    std::cout << "mcr_router: drained, exiting" << std::endl;
    return 0;
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_router: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_router: " << e.what() << "\n";
    return 1;
  }
}
