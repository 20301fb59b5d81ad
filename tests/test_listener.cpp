// One listener suite for both daemons. svc::Server and svc::Router share
// svc::FrameListener (bind, accept, per-connection frame loop, idle
// reaper, half-close drain) and svc::RequestMeter (per-verb request
// metrics), so every resource-lifetime guarantee is checked against
// both: a partial start leaves no residue and can be retried, the idle
// reaper works, framing errors get typed replies, stale socket files
// are replaced and live ones refused, in-flight requests and requests
// on connections not yet accepted survive the drain, connections are
// counted, and verb labels stay bounded.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "core/registry.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "svc/client.h"
#include "svc/listener.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/server.h"

namespace {

using namespace mcr;
using namespace std::chrono_literals;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mcr_listener_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

bool file_exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

std::size_t open_fd_count() {
  std::size_t n = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (::readdir(dir) != nullptr) ++n;
    ::closedir(dir);
  }
  return n;
}

// A mean solver that sleeps before delegating to Howard, so a request
// is reliably still in flight when the test starts a drain.
class NappingSolver : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "test_napping"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }
  [[nodiscard]] CycleResult solve_scc(const Graph& g) const override {
    std::this_thread::sleep_for(300ms);
    return SolverRegistry::instance().create("howard")->solve_scc(g);
  }
};

void ensure_napping_solver() {
  static std::once_flag once;
  std::call_once(once, [] {
    SolverInfo info;
    info.name = "test_napping";
    info.display = "Napping";
    info.source = "test fixture";
    info.year = 2026;
    info.bound = "O(sleep)";
    info.kind = ProblemKind::kCycleMean;
    SolverRegistry::instance().add(info, [](const SolverConfig&) -> std::unique_ptr<Solver> {
      return std::make_unique<NappingSolver>();
    });
  });
}

constexpr const char* kSlowSolve =
    R"({"verb":"SOLVE","generator":{"family":"ring","n":6,"seed":3},"algo":"test_napping"})";

// The daemon under test, behind one interface. The router variant owns
// the worker it forwards to.
class Daemon {
 public:
  virtual ~Daemon() = default;
  virtual void start() = 0;
  virtual void stop_and_drain() = 0;
  [[nodiscard]] virtual bool running() const = 0;
  [[nodiscard]] virtual obs::MetricsRegistry& metrics() = 0;
};

class ServerDaemon : public Daemon {
 public:
  explicit ServerDaemon(const svc::ListenerOptions& lo) : server_(options(lo)) {}
  void start() override { server_.start(); }
  void stop_and_drain() override { server_.stop_and_drain(); }
  [[nodiscard]] bool running() const override { return server_.running(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return server_.metrics(); }

 private:
  static svc::ServerOptions options(const svc::ListenerOptions& lo) {
    svc::ServerOptions so;
    static_cast<svc::ListenerOptions&>(so) = lo;
    return so;
  }
  svc::Server server_;
};

class RouterDaemon : public Daemon {
 public:
  explicit RouterDaemon(const svc::ListenerOptions& lo)
      : worker_path_(unique_socket_path()),
        worker_(worker_options(worker_path_)),
        router_(options(lo, worker_path_)) {
    worker_.start();
  }
  ~RouterDaemon() override {
    router_.stop_and_drain();
    worker_.stop_and_drain();
  }
  void start() override { router_.start(); }
  void stop_and_drain() override { router_.stop_and_drain(); }
  [[nodiscard]] bool running() const override { return router_.running(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return router_.metrics(); }

 private:
  static svc::ServerOptions worker_options(const std::string& path) {
    svc::ServerOptions so;
    so.unix_socket_path = path;
    return so;
  }
  static svc::RouterOptions options(const svc::ListenerOptions& lo,
                                    const std::string& worker_path) {
    svc::RouterOptions ro;
    static_cast<svc::ListenerOptions&>(ro) = lo;
    ro.workers.push_back(svc::parse_backend_address("unix:" + worker_path));
    ro.probe_interval_ms = 0.0;  // no prober thread: fd counts stay still
    return ro;
  }
  std::string worker_path_;
  svc::Server worker_;
  svc::Router router_;
};

enum class Kind { kServer, kRouter };

const char* kind_name(Kind kind) { return kind == Kind::kServer ? "server" : "router"; }

// Readable GetParam() in test listings.
void PrintTo(Kind kind, std::ostream* os) { *os << kind_name(kind); }

std::unique_ptr<Daemon> make_daemon(Kind kind, const svc::ListenerOptions& lo) {
  if (kind == Kind::kServer) return std::make_unique<ServerDaemon>(lo);
  return std::make_unique<RouterDaemon>(lo);
}

class Listener : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override { ensure_napping_solver(); }

  /// A daemon listening on a fresh unix socket path.
  std::unique_ptr<Daemon> started(svc::ListenerOptions lo = {}) {
    if (lo.unix_socket_path.empty()) lo.unix_socket_path = unique_socket_path();
    path_ = lo.unix_socket_path;
    std::unique_ptr<Daemon> d = make_daemon(GetParam(), lo);
    d->start();
    return d;
  }
  [[nodiscard]] svc::Client connect() const { return svc::Client::connect_unix(path_); }

  std::string path_;
};

/// A TCP listener on an ephemeral loopback port, held open by the test.
struct PortHolder {
  int fd = -1;
  int port = -1;
  PortHolder() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(fd, 4) == 0) {
      socklen_t len = sizeof addr;
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
      port = ntohs(addr.sin_port);
    }
  }
  ~PortHolder() { release(); }
  void release() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

TEST_P(Listener, PartialStartLeavesNoResidueAndCanBeRetried) {
  // The TCP port is taken, so start() fails after the unix listener has
  // already bound.
  PortHolder holder;
  ASSERT_GT(holder.port, 0);
  svc::ListenerOptions lo;
  lo.unix_socket_path = unique_socket_path();
  lo.tcp_port = holder.port;
  std::unique_ptr<Daemon> d = make_daemon(GetParam(), lo);

  const std::size_t fds_before = open_fd_count();
  EXPECT_THROW(d->start(), std::runtime_error);
  // No orphaned socket file (it would shadow a later bind as "stale"),
  // no leaked listener fd or wake pipe, not running.
  EXPECT_FALSE(file_exists(lo.unix_socket_path));
  EXPECT_EQ(open_fd_count(), fds_before);
  EXPECT_FALSE(d->running());

  // The same object starts cleanly once the conflict clears.
  holder.release();
  d->start();
  EXPECT_TRUE(d->running());
  EXPECT_TRUE(file_exists(lo.unix_socket_path));
  svc::Client c = svc::Client::connect_unix(lo.unix_socket_path);
  EXPECT_TRUE(c.ping());
  d->stop_and_drain();
  EXPECT_FALSE(file_exists(lo.unix_socket_path));
}

TEST_P(Listener, IdleReaperShutsDownStaleConnections) {
  svc::ListenerOptions lo;
  lo.idle_timeout_ms = 100;  // the reaper ticks every 200ms
  std::unique_ptr<Daemon> d = started(lo);

  svc::Client idle = connect();
  EXPECT_TRUE(idle.ping());  // connection established and serviced once

  // Past the timeout plus one reaper tick the daemon has half-closed the
  // idle connection: the next request fails at the transport layer
  // instead of hanging.
  std::this_thread::sleep_for(600ms);
  EXPECT_THROW((void)idle.ping(), svc::TransportError);
  EXPECT_GE(d->metrics().counter("mcr_idle_reaped_total").value(), 1u);

  // Reaping is per-connection hygiene, not a daemon-wide degradation.
  svc::Client fresh = connect();
  EXPECT_TRUE(fresh.ping());
  d->stop_and_drain();
}

TEST_P(Listener, IdleReaperSparesARequestInProgress) {
  svc::ListenerOptions lo;
  lo.idle_timeout_ms = 100;  // shorter than the 300ms solve
  std::unique_ptr<Daemon> d = started(lo);
  svc::Client c = connect();
  EXPECT_EQ(c.request(kSlowSolve).string_or("status", ""), "ok");
  d->stop_and_drain();
}

TEST_P(Listener, FramingErrorsGetTypedRepliesThenClose) {
  svc::ListenerOptions lo;
  lo.max_frame_bytes = 1024;
  std::unique_ptr<Daemon> d = started(lo);
  {
    svc::Client c = connect();
    c.send_bytes(std::string("XXXX\x02\x00\x00\x00{}", 10));
    const json::Value v = json::parse(c.read_payload());
    EXPECT_EQ(v.string_or("code", ""), svc::kErrBadFrame);
    EXPECT_THROW((void)c.read_payload(), svc::TransportError);  // closed
  }
  {
    svc::Client c = connect();
    c.send_bytes(std::string("MCR1\x00\x10\x00\x00", 8));  // 4096 > 1024
    const json::Value v = json::parse(c.read_payload());
    EXPECT_EQ(v.string_or("code", ""), svc::kErrFrameTooLarge);
    EXPECT_THROW((void)c.read_payload(), svc::TransportError);
  }
  EXPECT_EQ(d->metrics().counter("mcr_bad_frames_total").value(), 2u);
  // The daemon itself is unaffected.
  svc::Client ok = connect();
  EXPECT_TRUE(ok.ping());
  d->stop_and_drain();
}

TEST_P(Listener, StaleSocketFileIsReplacedAndLiveOneRefused) {
  // A socket file nothing listens on: what a crashed daemon leaves.
  const std::string path = unique_socket_path();
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);
  }
  ASSERT_TRUE(file_exists(path));
  svc::ListenerOptions lo;
  lo.unix_socket_path = path;
  std::unique_ptr<Daemon> live = started(lo);
  EXPECT_TRUE(connect().ping());

  // A second daemon on the same path is refused, and its failed start
  // must not unlink the live daemon's socket file.
  std::unique_ptr<Daemon> second = make_daemon(GetParam(), lo);
  EXPECT_THROW(second->start(), std::runtime_error);
  EXPECT_TRUE(file_exists(path));
  EXPECT_TRUE(connect().ping());
  live->stop_and_drain();
  EXPECT_FALSE(file_exists(path));
}

TEST_P(Listener, InFlightRequestCompletesAcrossDrain) {
  std::unique_ptr<Daemon> d = started();
  std::string status;
  std::thread in_flight([&] {
    svc::Client c = connect();
    status = c.request(kSlowSolve).string_or("status", "");
  });
  std::this_thread::sleep_for(100ms);  // the request is solving by now
  d->stop_and_drain();                 // must wait for it
  in_flight.join();
  EXPECT_EQ(status, "ok");
  EXPECT_FALSE(d->running());
  EXPECT_FALSE(file_exists(path_));
  EXPECT_THROW((void)connect(), std::runtime_error);
}

TEST_P(Listener, RequestOnAConnectionPendingAtDrainIsAnswered) {
  // The kernel completes the connect and buffers the request before the
  // accept thread has seen either; the drain must still accept, answer
  // and half-close the connection instead of dropping it.
  std::unique_ptr<Daemon> d = started();
  svc::Client c = connect();
  c.send_bytes(svc::encode_frame(R"({"verb":"PING"})"));
  d->stop_and_drain();
  EXPECT_EQ(json::parse(c.read_payload()).string_or("status", ""), "ok");
}

TEST_P(Listener, ActiveConnectionsCountsAnOpenClient) {
  std::unique_ptr<Daemon> d = started();
  const auto active = [&] { return d->metrics().gauge("mcr_active_connections").value(); };
  const auto wait_for = [&](std::int64_t want) {
    for (int i = 0; i < 200 && active() != want; ++i) std::this_thread::sleep_for(10ms);
    return active();
  };
  {
    svc::Client c = connect();
    EXPECT_TRUE(c.ping());
    EXPECT_EQ(wait_for(1), 1);
    EXPECT_GE(d->metrics().counter("mcr_connections_total").value(), 1u);
  }
  EXPECT_EQ(wait_for(0), 0);  // reaped once the client hangs up
  d->stop_and_drain();
}

TEST_P(Listener, BogusVerbsLeaveBoundedMetricSeries) {
  std::unique_ptr<Daemon> d = started();
  svc::Client c = connect();
  for (int i = 0; i < 200; ++i) {
    const json::Value r =
        c.request(R"({"verb":"BOGUS_)" + std::to_string(i) + R"("})");
    EXPECT_EQ(r.string_or("code", ""), svc::kErrBadRequest);
  }
  EXPECT_TRUE(c.ping());
  std::size_t series = 0;
  for (const auto& [name, value] : d->metrics().counter_values()) {
    if (name.rfind("mcr_requests_total", 0) == 0) ++series;
  }
  EXPECT_LE(series, svc::kVerbs.size() + 1);
  EXPECT_EQ(d->metrics()
                .counter(obs::labeled_name("mcr_requests_total", {{"verb", "INVALID"}}))
                .value(),
            200u);
  // Windowed companions: the verbs, INVALID, and the aggregate.
  std::size_t windowed = 0;
  for (const auto& [name, snap] : d->metrics().windowed_snapshots()) {
    if (name.rfind("mcr_request_seconds", 0) == 0) ++windowed;
  }
  EXPECT_LE(windowed, svc::kVerbs.size() + 2);
  d->stop_and_drain();
}

INSTANTIATE_TEST_SUITE_P(Daemons, Listener,
                         ::testing::Values(Kind::kServer, Kind::kRouter),
                         [](const ::testing::TestParamInfo<Kind>& param_info) {
                           return std::string(kind_name(param_info.param));
                         });

}  // namespace
