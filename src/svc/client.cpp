#include "svc/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "support/hash.h"

namespace mcr::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

int open_unix(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw TransportError("unix socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + socket_path + ")");
  }
  return fd;
}

int open_tcp(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &results);
  if (rc != 0) {
    throw TransportError("resolve(" + host + "): " + ::gai_strerror(rc));
  }
  int saved = ECONNREFUSED;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(results);
      return fd;
    }
    saved = errno;
    ::close(fd);
  }
  ::freeaddrinfo(results);
  errno = saved;
  throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
}

/// Backoff jitter from a per-client splitmix64 sequence: no global
/// state, so two clients never perturb each other's schedules.
double uniform(std::uint64_t& s, double lo, double hi) {
  const double u = unit_double(splitmix64_next(s));
  return lo + u * (hi - lo);
}

bool has_trace_id(std::string_view payload) {
  return payload.find("\"trace_id\"") != std::string_view::npos;
}

/// Splices trace-context fields before the payload object's closing
/// brace; parent_span may be empty (omitted).
std::string with_trace_context(std::string_view payload,
                               std::string_view trace_id,
                               std::string_view parent_span) {
  const auto brace = payload.rfind('}');
  if (brace == std::string_view::npos || trace_id.empty()) {
    return std::string(payload);
  }
  std::string out(payload.substr(0, brace));
  const auto last = out.find_last_not_of(" \t\r\n");
  if (last != std::string::npos && out[last] != '{') out += ',';
  out += "\"trace_id\":\"";
  out += json_escape(trace_id);
  out += '"';
  if (!parent_span.empty()) {
    out += ",\"parent_span\":\"";
    out += json_escape(parent_span);
    out += '"';
  }
  out.append(payload.substr(brace));
  return out;
}

}  // namespace

Client Client::connect_unix(const std::string& socket_path) {
  Client c(open_unix(socket_path));
  c.endpoint_.kind = Endpoint::Kind::kUnix;
  c.endpoint_.path = socket_path;
  return c;
}

Client Client::connect_tcp(int port) { return connect_tcp("127.0.0.1", port); }

Client Client::connect_tcp(const std::string& host, int port) {
  Client c(open_tcp(host, port));
  c.endpoint_.kind = Endpoint::Kind::kTcp;
  c.endpoint_.host = host;
  c.endpoint_.port = port;
  return c;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::exchange(other.endpoint_, Endpoint{})),
      policy_(other.policy_),
      jitter_state_(other.jitter_state_),
      trace_id_(std::move(other.trace_id_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::exchange(other.endpoint_, Endpoint{});
    policy_ = other.policy_;
    jitter_state_ = other.jitter_state_;
    trace_id_ = std::move(other.trace_id_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::reconnect() {
  switch (endpoint_.kind) {
    case Endpoint::Kind::kUnix: {
      const int fd = open_unix(endpoint_.path);  // throws on failure
      if (fd_ >= 0) ::close(fd_);
      fd_ = fd;
      return;
    }
    case Endpoint::Kind::kTcp: {
      const int fd = open_tcp(endpoint_.host, endpoint_.port);
      if (fd_ >= 0) ::close(fd_);
      fd_ = fd;
      return;
    }
    case Endpoint::Kind::kNone:
      throw TransportError("Client: cannot reconnect (endpoint unknown)");
  }
}

void Client::set_retry_policy(const RetryPolicy& policy) {
  policy_ = policy;
  jitter_state_ = policy.jitter_seed;
}

void Client::send_bytes(std::string_view bytes) {
  if (!write_full(fd_, bytes)) throw_errno("Client: write failed");
}

std::string Client::read_payload(std::size_t max_frame_bytes) {
  std::string payload;
  switch (read_frame(fd_, max_frame_bytes, payload)) {
    case ReadStatus::kOk:
      return payload;
    case ReadStatus::kClosed:
      throw TransportError("Client: server closed the connection");
    case ReadStatus::kBadMagic:
      throw TransportError("Client: bad response magic");
    case ReadStatus::kTooLarge:
      throw TransportError("Client: response frame too large");
    case ReadStatus::kTruncated:
      throw TransportError("Client: truncated response");
  }
  throw TransportError("Client: unreachable");
}

std::string Client::request_raw(std::string_view payload) {
  // The sticky trace id rides on every outgoing object-shaped payload
  // that doesn't already carry one — raw callers (mcr_query's solve
  // path, byte-identity tests) get the same propagation as request().
  // Non-JSON payloads (robustness tests send garbage) pass untouched.
  std::string augmented;
  if (!trace_id_.empty() && !has_trace_id(payload) && !payload.empty() &&
      payload.back() == '}') {
    augmented = with_trace_context(payload, trace_id_, {});
    payload = augmented;
  }
  send_bytes(encode_frame(payload));
  return read_payload();
}

json::Value Client::request(std::string_view payload) {
  try {
    return json::parse(request_raw(payload));
  } catch (const TransportError&) {
    throw;
  } catch (const std::exception& e) {
    // An ok-framed but unparseable response is a transport-class
    // failure: the stream can no longer be trusted.
    throw TransportError(std::string("Client: bad response JSON: ") + e.what());
  }
}

json::Value Client::request_retry(std::string_view payload) {
  if (jitter_state_ == 0) jitter_state_ = policy_.jitter_seed;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // One trace id for the whole flight: every attempt carries the same
  // id plus its own "attempt/<k>" parent span, so the server's flight
  // recorder groups retries of one call under one identity.
  const bool caller_traced = has_trace_id(payload);
  const std::string flight_id =
      caller_traced ? std::string()
                    : (trace_id_.empty() ? generate_trace_id() : trace_id_);
  double prev_sleep = policy_.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    bool transport_failed = false;
    try {
      const std::string attempt_payload =
          caller_traced ? std::string(payload)
                        : with_trace_context(payload, flight_id,
                                             "attempt/" + std::to_string(attempt));
      const json::Value r = request(attempt_payload);
      if (r.string_or("status", "") != "error") return r;
      ServiceError err(r.string_or("code", kErrInternal), r.string_or("message", ""));
      if (!err.retryable() || attempt >= policy_.max_attempts) throw err;
    } catch (const TransportError&) {
      if (attempt >= policy_.max_attempts) throw;
      transport_failed = true;
    }
    // Decorrelated jitter: sleep ~ U[base, 3 * previous], capped.
    const double sleep_ms =
        std::min(policy_.max_backoff_ms,
                 uniform(jitter_state_, policy_.initial_backoff_ms,
                         std::max(policy_.initial_backoff_ms, 3.0 * prev_sleep)));
    prev_sleep = sleep_ms;
    if (policy_.budget_ms > 0 && elapsed_ms() + sleep_ms > policy_.budget_ms) {
      throw TransportError("Client: retry budget exhausted after " +
                           std::to_string(attempt) + " attempts");
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
    if (transport_failed) {
      // The old connection may hold half a frame; always start clean.
      // A failed reconnect consumes attempts like any other failure.
      try {
        reconnect();
      } catch (const TransportError&) {
        if (attempt + 1 >= policy_.max_attempts) throw;
      }
    }
  }
}

bool Client::ping() {
  const json::Value r = request(R"({"verb":"PING"})");
  return r.string_or("status", "") == "ok";
}

std::string Client::load_dimacs_text(const std::string& dimacs) {
  const json::Value r =
      request(std::string(R"({"verb":"LOAD","dimacs":")") + json_escape(dimacs) +
              "\"}");
  if (r.string_or("status", "") != "ok") {
    // Typed so callers can branch on the code (ServiceError is a
    // runtime_error, so pre-existing catch sites still work).
    throw ServiceError(r.string_or("code", "INTERNAL"),
                       "LOAD failed: " + r.string_or("message", "?"));
  }
  return r.at("fingerprint").as_string();
}

std::string Client::solve_payload(const std::string& fingerprint,
                                  const std::string& objective,
                                  const std::string& algo, double deadline_ms) const {
  std::string payload = R"({"verb":"SOLVE","fingerprint":")" + fingerprint +
                        R"(","objective":")" + objective + "\"";
  if (!algo.empty()) payload += R"(,"algo":")" + json_escape(algo) + "\"";
  if (deadline_ms > 0.0) payload += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  payload += "}";
  return payload;
}

json::Value Client::solve(const std::string& fingerprint, const std::string& objective,
                          const std::string& algo, double deadline_ms) {
  return request(solve_payload(fingerprint, objective, algo, deadline_ms));
}

json::Value Client::solve_retry(const std::string& fingerprint,
                                const std::string& objective, const std::string& algo,
                                double deadline_ms) {
  return request_retry(solve_payload(fingerprint, objective, algo, deadline_ms));
}

json::Value Client::stats(bool window) {
  return request(window ? R"({"verb":"STATS","window":true})"
                        : R"({"verb":"STATS"})");
}

json::Value Client::health() { return request(R"({"verb":"HEALTH"})"); }

json::Value Client::reload(const std::string& path) {
  std::string payload = R"({"verb":"RELOAD")";
  if (!path.empty()) payload += ",\"path\":\"" + json_escape(path) + "\"";
  payload += "}";
  return request(payload);
}

}  // namespace mcr::svc
