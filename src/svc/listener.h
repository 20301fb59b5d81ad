// The one service skeleton shared by svc::Server and svc::Router.
//
// FrameListener owns everything between a listening socket and a
// request payload: the unix bind (with its stale-socket probe), the TCP
// bind (host resolution, ephemeral-port readback), the poll/accept loop
// woken by a self-pipe, one thread per connection running the MCR1
// frame loop, the idle reaper, and the half-close drain. A daemon hands
// it a handle(payload) -> response callback and becomes a pure handler
// class.
//
// RequestMeter owns the request-latency instrument layout: the
// mcr_requests_total{verb} counter plus the aggregate and per-verb
// mcr_request_seconds histogram and windowed histogram, bucketed by the
// one request_seconds_bounds() grid. Verbs outside kVerbs are recorded
// as "INVALID", so no client can mint unbounded metric series.
#ifndef MCR_SVC_LISTENER_H
#define MCR_SVC_LISTENER_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "svc/protocol.h"

namespace mcr::svc {

/// Listener configuration, embedded in ServerOptions and RouterOptions.
struct ListenerOptions {
  /// Unix-domain listener path; empty disables. A stale socket file
  /// (path exists but nothing accepts) is replaced; a live one fails.
  std::string unix_socket_path;
  /// TCP listener: port number, 0 = ephemeral, -1 = disabled.
  int tcp_port = -1;
  /// Bind address for the TCP listener. Loopback by default; set
  /// "0.0.0.0" (or a specific interface address) so a worker can sit
  /// behind an mcr_router on another host. Numeric IPv4, or a name
  /// resolved via getaddrinfo.
  std::string tcp_bind_host = "127.0.0.1";
  /// Per-frame payload cap; larger frames are answered FRAME_TOO_LARGE
  /// and the connection closed.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Idle-connection reaper: a connection with no request in progress
  /// and no frame activity for this long is shut down (its blocked read
  /// returns EOF and the handler thread exits). 0 disables. Counted in
  /// mcr_idle_reaped_total.
  std::int64_t idle_timeout_ms = 0;
};

class FrameListener {
 public:
  /// Turns one request payload into one response payload. Runs on the
  /// connection's thread; anything it throws is answered INTERNAL.
  using Handler = std::function<std::string(const std::string& payload)>;

  FrameListener(ListenerOptions options, obs::MetricsRegistry& metrics,
                Handler handler);
  /// Drains (as drain()) if still listening.
  ~FrameListener();

  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  /// Binds the configured listeners and spawns the accept thread.
  /// Throws std::runtime_error when no listener is configured or a
  /// bind/listen fails; every fd opened by the failed call is closed
  /// and the socket file it bound is unlinked, so start() may be
  /// retried on the same object.
  void start();

  /// Stop accepting, half-close every connection (pending reads return
  /// EOF, in-flight responses still go out), join the connection
  /// threads, close their fds, and remove the unix socket file.
  /// Idempotent; must not be called from a handler.
  void drain();

  /// Actual TCP port after start() (useful with tcp_port = 0); -1 when
  /// no TCP listener is bound.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }
  /// Open client connections right now.
  [[nodiscard]] std::size_t connection_count() const;
  /// Seconds since the last successful start().
  [[nodiscard]] double uptime_seconds() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    /// Steady-clock ms of the last finished frame; kBusy while a request
    /// is being handled, so the reaper never cuts off a slow request.
    std::atomic<std::int64_t> last_activity_ms{0};
    /// Set by the reaper (accept thread, under conns_mutex_) so a
    /// connection is shut down and counted at most once.
    bool idle_reaped = false;
  };

  void accept_loop();
  void connection_main(Connection& conn);
  void reap_idle_connections();
  void reap_finished_connections();
  /// Closes the listening fds and the wake pipe, and unlinks the socket
  /// file when this object bound it.
  void close_listeners();

  const ListenerOptions options_;
  obs::MetricsRegistry& metrics_;
  const Handler handler_;

  std::atomic<bool> listening_{false};
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  bool unix_bound_ = false;
  int wake_pipe_[2] = {-1, -1};
  std::chrono::steady_clock::time_point started_at_{};
  std::thread accept_thread_;

  mutable std::mutex conns_mutex_;
  std::list<Connection> conns_;
};

/// Request-latency bucket bounds: log-spaced, three per decade, 10us to
/// 10s, so sub-millisecond cached replays and multi-second cold solves
/// resolve into distinct buckets.
[[nodiscard]] const std::vector<double>& request_seconds_bounds();

/// `std::ostream` text of a double (six significant digits) for
/// hand-built JSON.
[[nodiscard]] std::string fmt_json_double(double v);

/// `q`-th percentile of a windowed snapshot in milliseconds, or "null"
/// when the window holds no observations (never NaN on the wire).
[[nodiscard]] std::string window_quantile_ms_json(
    const obs::SlidingWindowHistogram::Snapshot& s, double q);

/// `,"metrics":{..},"prometheus":"<text>"}`, closing both daemons' STATS.
/// "prometheus" stays LAST: clients cut it out by suffix (docs/SERVICE.md).
[[nodiscard]] std::string stats_tail(const obs::MetricsRegistry& metrics);

class RequestMeter {
 public:
  /// `window_seconds` / `window_slots` shape the windowed family.
  RequestMeter(obs::MetricsRegistry& metrics, double window_seconds,
               std::size_t window_slots);

  /// Records one finished request under its verb label (kVerbs, or
  /// "INVALID" for anything else), exemplared with `trace_id`.
  void record(std::string_view verb, double seconds, std::string_view trace_id);

  /// `{"window_seconds":..,"covered_seconds":..,"verbs":{"(all)":{..},
  /// "SOLVE":{..}}}` — windowed per-verb count/rps/percentiles, read by
  /// STATS {"window":true}, the stats pump, and `mcr_query top`.
  [[nodiscard]] std::string window_json() const;

 private:
  obs::MetricsRegistry& metrics_;
  const obs::SlidingWindowHistogram::Options window_;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_LISTENER_H
