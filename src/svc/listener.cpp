#include "svc/listener.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace mcr::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// last_activity_ms while a request is being handled: never idle.
constexpr std::int64_t kBusy = std::numeric_limits<std::int64_t>::max();

/// `q`-th percentile of a windowed snapshot in milliseconds, or "null"
/// when the window holds no observations (never NaN on the wire).
std::string window_quantile_ms_json(
    const obs::SlidingWindowHistogram::Snapshot& s, double q) {
  const auto v = obs::histogram_quantile(
      s.bounds, obs::SlidingWindowHistogram::cumulative_counts(s), s.count, q);
  return v.has_value() ? fmt_json_double(*v * 1000.0) : "null";
}

}  // namespace

// --- FrameListener -------------------------------------------------------

FrameListener::FrameListener(ListenerOptions options, obs::MetricsRegistry& metrics,
                             Handler handler)
    : options_(std::move(options)), metrics_(metrics), handler_(std::move(handler)) {}

FrameListener::~FrameListener() { drain(); }

void FrameListener::start() {
  if (listening_.load()) throw std::runtime_error("FrameListener::start: already listening");
  if (options_.unix_socket_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error("no listener configured");
  }
  // A throw at any step below unwinds every fd opened so far and the
  // socket file this call bound: listening_ is still false, so drain()
  // would never reclaim them, and an orphaned socket file would shadow
  // a later start() on the same path.
  struct Unwind {
    FrameListener& listener;
    bool armed = true;
    ~Unwind() {
      if (armed) listener.close_listeners();
    }
  } unwind{*this};

  if (!options_.unix_socket_path.empty()) {
    const std::string& path = options_.unix_socket_path;
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (unix_fd_ < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const auto bind_unix = [&] {
      return ::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    };
    if (!bind_unix()) {
      if (errno != EADDRINUSE) throw_errno("bind(" + path + ")");
      // A stale socket file from a dead daemon is safe to replace; a
      // live daemon answers the probe connect and we refuse.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 &&
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
      if (probe >= 0) ::close(probe);
      if (live) throw std::runtime_error("socket path in use by a live server: " + path);
      ::unlink(path.c_str());
      if (!bind_unix()) throw_errno("bind(" + path + ")");
    }
    unix_bound_ = true;
    if (::listen(unix_fd_, 128) != 0) throw_errno("listen(unix)");
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (tcp_fd_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    const std::string host =
        options_.tcp_bind_host.empty() ? "127.0.0.1" : options_.tcp_bind_host;
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      addrinfo hints{};
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      addrinfo* res = nullptr;
      const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
      if (rc != 0 || res == nullptr) {
        throw std::runtime_error("cannot resolve bind host '" + host +
                                 "': " + ::gai_strerror(rc));
      }
      addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
      ::freeaddrinfo(res);
    }
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw_errno("bind(" + host + ":" + std::to_string(options_.tcp_port) + ")");
    }
    if (::listen(tcp_fd_, 128) != 0) throw_errno("listen(tcp)");
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  started_at_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  unwind.armed = false;
  listening_.store(true);
}

void FrameListener::drain() {
  if (!listening_.exchange(false)) return;
  // 1. Stop accepting: wake the poll and join the accept thread, which
  //    also retires the reaper.
  [[maybe_unused]] const ::ssize_t wrc = ::write(wake_pipe_[1], "x", 1);
  accept_thread_.join();
  // 2. Half-close every connection: pending reads return EOF, in-flight
  //    responses still go out.
  std::list<Connection> conns;
  {
    std::lock_guard lock(conns_mutex_);
    for (Connection& c : conns_) {
      if (!c.done.load()) ::shutdown(c.fd, SHUT_RD);
    }
    conns.swap(conns_);
  }
  // 3. Join outside the lock (a handler may still ask for
  //    connection_count()); each thread finishes its current request
  //    first. The fd is closed only after the join — handler threads
  //    never close their own fd, so the reaper can never shut down a
  //    recycled descriptor.
  for (Connection& c : conns) {
    if (c.thread.joinable()) c.thread.join();
    if (c.fd >= 0) ::close(c.fd);
  }
  metrics_.gauge("mcr_active_connections").set(0);
  close_listeners();
}

void FrameListener::close_listeners() {
  for (int* fd : {&unix_fd_, &tcp_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  bound_tcp_port_ = -1;
  if (unix_bound_) ::unlink(options_.unix_socket_path.c_str());
  unix_bound_ = false;
}

std::size_t FrameListener::connection_count() const {
  std::lock_guard lock(conns_mutex_);
  return conns_.size();
}

double FrameListener::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_)
      .count();
}

void FrameListener::accept_loop() {
  std::vector<pollfd> fds;
  if (unix_fd_ >= 0) fds.push_back(pollfd{unix_fd_, POLLIN, 0});
  if (tcp_fd_ >= 0) fds.push_back(pollfd{tcp_fd_, POLLIN, 0});
  fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
  for (;;) {
    // Finite timeout so finished connection threads get reaped, and
    // idle ones shut down, even on a quiet listener.
    const int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0 && errno != EINTR) break;
    // Accept everything pending (the listeners are non-blocking) before
    // honouring the wake pipe: a connection the kernel completed before
    // the drain began is served and half-closed with the rest, never
    // dropped unanswered.
    for (std::size_t i = 0; rc > 0 && i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      for (int conn_fd; (conn_fd = ::accept(fds[i].fd, nullptr, nullptr)) >= 0;) {
        std::lock_guard lock(conns_mutex_);
        Connection& c = conns_.emplace_back();
        c.fd = conn_fd;
        c.last_activity_ms.store(steady_ms());
        c.thread = std::thread([this, &c] { connection_main(c); });
        metrics_.counter("mcr_connections_total").add(1);
        metrics_.gauge("mcr_active_connections")
            .set(static_cast<std::int64_t>(conns_.size()));
      }
    }
    if (fds.back().revents != 0) break;  // wake pipe: draining
    reap_idle_connections();
    reap_finished_connections();
  }
}

void FrameListener::reap_finished_connections() {
  std::lock_guard lock(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load() && it->thread.joinable()) {
      it->thread.join();
      if (it->fd >= 0) ::close(it->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  metrics_.gauge("mcr_active_connections")
      .set(static_cast<std::int64_t>(conns_.size()));
}

void FrameListener::reap_idle_connections() {
  if (options_.idle_timeout_ms <= 0) return;
  const std::int64_t now_ms = steady_ms();
  std::lock_guard lock(conns_mutex_);
  for (Connection& c : conns_) {
    if (c.done.load() || c.idle_reaped) continue;
    if (now_ms - c.last_activity_ms.load() < options_.idle_timeout_ms) continue;
    // Shutting down the socket makes the handler's blocked read return
    // EOF; the thread then exits normally and the next reap joins it.
    // The fd itself stays open until that join, so this can never hit
    // a recycled descriptor.
    c.idle_reaped = true;
    ::shutdown(c.fd, SHUT_RDWR);
    metrics_.counter("mcr_idle_reaped_total").add(1);
  }
}

void FrameListener::connection_main(Connection& conn) {
  std::string payload;
  for (;;) {
    const ReadStatus st = read_frame(conn.fd, options_.max_frame_bytes, payload);
    if (st == ReadStatus::kClosed || st == ReadStatus::kTruncated) break;
    if (st == ReadStatus::kBadMagic || st == ReadStatus::kTooLarge) {
      // Framing is unrecoverable: report (best effort) and close.
      metrics_.counter("mcr_bad_frames_total").add(1);
      const bool too_large = st == ReadStatus::kTooLarge;
      (void)write_full(
          conn.fd,
          encode_frame(error_payload(
              too_large ? kErrFrameTooLarge : kErrBadFrame,
              too_large ? "frame exceeds the size limit of " +
                              std::to_string(options_.max_frame_bytes) + " bytes"
                        : std::string("bad frame magic (expected MCR1)"))));
      break;
    }
    conn.last_activity_ms.store(kBusy);
    // Per-connection error isolation: nothing a single request does may
    // take down the daemon or any other connection. Handlers map what
    // they can to typed error payloads; this is the last-resort belt
    // for what they cannot (bad_alloc while building a response,
    // foreign throw types).
    std::string response;
    try {
      response = handler_(payload);
    } catch (...) {
      metrics_.counter("mcr_connection_errors_total").add(1);
      response = error_payload(kErrInternal, "internal error handling request");
    }
    const bool written = write_full(conn.fd, encode_frame(response));
    conn.last_activity_ms.store(steady_ms());
    if (!written) break;
  }
  // The fd is deliberately left open: reap_finished_connections (or
  // drain) closes it after joining this thread.
  conn.done.store(true);
}

// --- RequestMeter --------------------------------------------------------

const std::vector<double>& request_seconds_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-5; decade < 10.0; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(decade * 2.1544346900318837);  // 10^(1/3)
      b.push_back(decade * 4.6415888336127790);  // 10^(2/3)
    }
    b.push_back(10.0);
    return b;
  }();
  return bounds;
}

std::string fmt_json_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

RequestMeter::RequestMeter(obs::MetricsRegistry& metrics, double window_seconds,
                           std::size_t window_slots)
    : metrics_(metrics), window_{window_seconds, window_slots, {}} {}

void RequestMeter::record(std::string_view verb, double seconds,
                          std::string_view trace_id) {
  static constexpr const char* kFamily = "mcr_request_seconds";
  const bool known = std::find(kVerbs.begin(), kVerbs.end(), verb) != kVerbs.end();
  const std::string label = known ? std::string(verb) : "INVALID";
  metrics_.counter(obs::labeled_name("mcr_requests_total", {{"verb", label}})).add(1);
  for (const std::string& name :
       {std::string(kFamily), obs::labeled_name(kFamily, {{"verb", label}})}) {
    metrics_.histogram(name, request_seconds_bounds()).observe(seconds, trace_id);
    metrics_.windowed_histogram(name, request_seconds_bounds(), window_).observe(seconds);
  }
}

std::string RequestMeter::window_json() const {
  const auto snapshots = metrics_.windowed_snapshots();
  std::string out = "{\"window_seconds\":";
  out += fmt_json_double(window_.window_seconds);
  double covered = 0.0;
  for (const auto& [name, snap] : snapshots) {
    covered = std::max(covered, snap.covered_seconds);
  }
  out += ",\"covered_seconds\":" + fmt_json_double(covered);
  out += ",\"verbs\":{";
  bool first = true;
  for (const auto& [name, snap] : snapshots) {
    // Keys are the windowed mcr_request_seconds family: the bare name is
    // the all-verbs aggregate; labeled variants carry verb="X".
    static constexpr std::string_view kBase = "mcr_request_seconds";
    static constexpr std::string_view kVerbPrefix = "mcr_request_seconds{verb=\"";
    std::string verb;
    if (name == kBase) {
      verb = "(all)";
    } else if (name.rfind(kVerbPrefix, 0) == 0 && name.size() > kVerbPrefix.size() + 2) {
      verb = name.substr(kVerbPrefix.size(), name.size() - kVerbPrefix.size() - 2);
    } else {
      continue;  // foreign windowed instrument; not part of this view
    }
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(verb);
    out += "\":{\"count\":" + std::to_string(snap.count);
    // All verbs share one request timeline, so every rate is computed
    // over the window-wide covered span — a per-instrument span would
    // report absurd rates in the instant after a verb's first request.
    const double rps = covered > 0.0 ? static_cast<double>(snap.count) / covered : 0.0;
    out += ",\"rps\":" + fmt_json_double(rps);
    out += ",\"p50_ms\":" + window_quantile_ms_json(snap, 0.50);
    out += ",\"p95_ms\":" + window_quantile_ms_json(snap, 0.95);
    out += ",\"p99_ms\":" + window_quantile_ms_json(snap, 0.99);
    out += ",\"p999_ms\":" + window_quantile_ms_json(snap, 0.999);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace mcr::svc
