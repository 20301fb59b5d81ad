#include "svc/router.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/fingerprint.h"
#include "graph/io.h"
#include "obs/build_info.h"
#include "support/hash.h"
#include "support/json.h"

namespace mcr::svc {

namespace {

std::uint64_t hash_bytes(std::string_view s) {
  // FNV-1a accumulate, splitmix finalize: stable across platforms (the
  // ring layout is part of the fleet's observable behavior).
  return splitmix64(fnv1a(s));
}

double uniform(std::uint64_t& state, double lo, double hi) {
  state += kGoldenGamma;
  const double u = unit_double(splitmix64(state));
  return lo + u * (hi - lo);
}

/// Canonical text for one scalar JSON value inside a routing key.
/// Logically-equal specs serialize identically (Object is a sorted map,
/// numbers go through one formatter).
void append_canonical(std::string& out, const json::Value& v) {
  if (v.is_string()) {
    out += v.as_string();
  } else if (v.is_number()) {
    const double d = v.as_double();
    const auto ll = static_cast<long long>(d);
    if (static_cast<double>(ll) == d) {
      out += std::to_string(ll);
    } else {
      out += fmt_json_double(d);
    }
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_object()) {
    for (const auto& [k, val] : v.as_object()) {
      out += k;
      out += '=';
      append_canonical(out, val);
      out += ';';
    }
  } else if (v.is_array()) {
    for (const auto& e : v.as_array()) {
      append_canonical(out, e);
      out += ',';
    }
  }
}

const char* breaker_state_name(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half_open";
  }
  return "?";
}

std::int64_t breaker_state_code(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::kClosed: return 0;
    case CircuitBreaker::State::kOpen: return 1;
    case CircuitBreaker::State::kHalfOpen: return 2;
  }
  return -1;
}

/// Quick error probe on a response payload: worker responses put
/// trace_id/status first, so the marker sits in the first few dozen
/// bytes of error payloads; ok payloads never contain it as a field.
bool looks_like_error(std::string_view response) {
  return response.find("\"status\":\"error\"") != std::string_view::npos;
}

}  // namespace

// --- BackendAddress ------------------------------------------------------

BackendAddress parse_backend_address(const std::string& spec, bool allow_port_zero) {
  if (spec.empty()) throw std::invalid_argument("empty worker spec");
  BackendAddress out;
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = BackendAddress::Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      throw std::invalid_argument("worker spec '" + spec + "': empty socket path");
    }
    out.name = "unix:" + out.path;
    return out;
  }
  out.kind = BackendAddress::Kind::kTcp;
  const auto colon = spec.rfind(':');
  std::string port_text;
  if (colon == std::string::npos) {
    out.host = "127.0.0.1";
    port_text = spec;
  } else {
    out.host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
    if (out.host.empty()) {
      throw std::invalid_argument("worker spec '" + spec + "': empty host");
    }
  }
  std::size_t pos = 0;
  int port = 0;
  try {
    port = std::stoi(port_text, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != port_text.size() || port < (allow_port_zero ? 0 : 1) || port > 65535) {
    throw std::invalid_argument("worker spec '" + spec +
                                "': expected unix:PATH, HOST:PORT, or PORT");
  }
  out.port = port;
  out.name = out.host + ":" + std::to_string(port);
  return out;
}

// --- CircuitBreaker ------------------------------------------------------

CircuitBreaker::CircuitBreaker(Options options)
    : options_(options), jitter_state_(options.jitter_seed) {}

bool CircuitBreaker::admit(std::chrono::steady_clock::time_point now) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now < open_until_) return false;
      state_ = State::kHalfOpen;
      trial_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      if (trial_in_flight_) return false;
      trial_in_flight_ = true;
      return true;
  }
  return false;
}

void CircuitBreaker::on_success() {
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  reopen_count_ = 0;
  trial_in_flight_ = false;
  cooldown_ms_ = 0.0;
}

void CircuitBreaker::on_failure(std::chrono::steady_clock::time_point now) {
  ++consecutive_failures_;
  trial_in_flight_ = false;
  if (state_ == State::kHalfOpen ||
      (state_ == State::kClosed &&
       consecutive_failures_ >= options_.failure_threshold)) {
    open(now);
  } else if (state_ == State::kOpen) {
    // Failures reported while already open (e.g. a probe racing the
    // transition) extend nothing; the cooldown stands.
  }
}

void CircuitBreaker::open(std::chrono::steady_clock::time_point now) {
  state_ = State::kOpen;
  double nominal = options_.cooldown_initial_ms;
  for (int i = 0; i < reopen_count_; ++i) {
    nominal = std::min(nominal * 2.0, options_.cooldown_max_ms);
  }
  ++reopen_count_;
  cooldown_ms_ = nominal;
  const double jittered = uniform(jitter_state_, 0.5 * nominal, nominal);
  open_until_ = now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(jittered));
}

// --- Router: lifecycle ---------------------------------------------------

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      meter_(metrics_, options_.stats_window_s, options_.stats_window_slots),
      listener_(options_, metrics_,
                [this](const std::string& payload) { return handle_request(payload); }) {
  // The fleet model — backends, instruments, and the hash ring — is
  // pure computation, built here so ring/snapshot helpers answer on a
  // router that was never started (and so ring property tests need no
  // sockets). start() only binds listeners and spawns threads.
  if (options_.replicas == 0) options_.replicas = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  obs::export_build_info(metrics_);
  // Register the fleet counters eagerly so STATS/prometheus always
  // carry them (a zero is a statement; an absent series is a question).
  (void)metrics_.counter("mcr_router_failovers_total");
  (void)metrics_.counter("mcr_router_breaker_opens_total");
  (void)metrics_.counter("mcr_router_no_replica_total");
  (void)metrics_.counter("mcr_router_partial_responses_total");
  (void)metrics_.counter("mcr_router_probes_total");
  (void)metrics_.counter("mcr_router_probe_failures_total");
  (void)metrics_.counter("mcr_router_backend_recoveries_total");

  // Backends + their instruments (looked up once; hot paths update
  // through the cached references).
  const obs::SlidingWindowHistogram::Options wopt{
      options_.stats_window_s, options_.stats_window_slots, {}};
  for (std::size_t i = 0; i < options_.workers.size(); ++i) {
    auto b = std::make_unique<Backend>();
    b->address = options_.workers[i];
    CircuitBreaker::Options bo = options_.breaker;
    bo.jitter_seed = splitmix64(options_.breaker.jitter_seed + i);
    b->breaker = CircuitBreaker(bo);
    const std::string& w = b->address.name;
    b->requests_total = &metrics_.counter(
        obs::labeled_name("mcr_router_backend_requests_total", {{"worker", w}}));
    b->failures_total = &metrics_.counter(
        obs::labeled_name("mcr_router_backend_failures_total", {{"worker", w}}));
    b->up_gauge =
        &metrics_.gauge(obs::labeled_name("mcr_router_backend_up", {{"worker", w}}));
    b->draining_gauge = &metrics_.gauge(
        obs::labeled_name("mcr_router_backend_draining", {{"worker", w}}));
    b->breaker_gauge = &metrics_.gauge(
        obs::labeled_name("mcr_router_breaker_state", {{"worker", w}}));
    b->latency_window = &metrics_.windowed_histogram(
        obs::labeled_name("mcr_router_backend_seconds", {{"worker", w}}),
        request_seconds_bounds(), wopt);
    b->up_gauge->set(1);
    backends_.push_back(std::move(b));
  }

  // Hash ring with virtual nodes. Points depend only on worker names,
  // so a fixed fleet keeps a fixed layout across router restarts.
  const std::size_t vnodes = std::max<std::size_t>(1, options_.virtual_nodes);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const std::uint64_t base = hash_bytes(backends_[i]->address.name);
    for (std::size_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(splitmix64(base + kGoldenGamma * v), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

Router::~Router() { stop_and_drain(); }

void Router::start() {
  if (running_.load()) throw std::runtime_error("Router::start: already running");
  if (backends_.empty()) {
    throw std::runtime_error("Router::start: no workers configured");
  }
  listener_.start();  // unwinds its own fds and socket file on a throw
  running_.store(true);
  if (options_.probe_interval_ms > 0.0) {
    stopping_prober_ = false;
    prober_thread_ = std::thread([this] { prober_loop(); });
  }
}

void Router::stop_and_drain() {
  if (!running_.exchange(false)) return;
  // 1. Prober first: probes dial workers; none should race teardown.
  if (prober_thread_.joinable()) {
    {
      std::lock_guard lock(prober_mutex_);
      stopping_prober_ = true;
    }
    prober_cv_.notify_all();
    prober_thread_.join();
  }
  // 2. Stop accepting and finish in-flight client requests.
  listener_.drain();
  // 3. Drop pooled upstream connections.
  for (const auto& b : backends_) {
    std::lock_guard lock(b->mutex);
    b->idle.clear();
  }
}

// --- Router: request handling --------------------------------------------

std::string Router::handle_request(const std::string& payload) {
  const auto arrival = std::chrono::steady_clock::now();
  std::string verb;  // metered as INVALID until a known verb parses
  std::string trace_id;
  std::string response;
  try {
    const json::Value request = json::parse(payload);
    if (!request.is_object()) {
      throw std::invalid_argument("request payload must be a JSON object");
    }
    verb = request.string_or("verb", "");
    if (verb.empty()) throw std::invalid_argument("missing \"verb\"");
    trace_id = request.string_or("trace_id", "");
    if (!trace_id.empty() && !is_valid_trace_id(trace_id)) {
      throw std::invalid_argument("invalid trace_id (1-64 chars of [0-9a-zA-Z_-])");
    }
    const bool client_traced = !trace_id.empty();
    if (trace_id.empty()) trace_id = generate_trace_id();
    // Forwarded payload always carries the flight's trace id so the
    // worker span chains under the router span.
    const std::string forward_payload =
        client_traced ? payload : with_trace_id(payload, trace_id);

    if (verb == "HEALTH") {
      response = handle_health();
    } else if (verb == "STATS") {
      response = handle_stats(request);
    } else if (verb == "RELOAD") {
      response = handle_reload_fanout(forward_payload);
    } else if (verb == "LOAD") {
      response = handle_load(request, forward_payload);
    } else {
      response = forward_with_failover(request, verb, forward_payload, arrival);
    }
  } catch (const std::exception& e) {
    response = error_payload(kErrBadRequest, e.what());
  }
  if (trace_id.empty()) trace_id = generate_trace_id();
  if (response.find("\"trace_id\"") == std::string::npos) {
    response = with_trace_id(response, trace_id);
  }
  meter_.record(verb,
                std::chrono::duration<double>(std::chrono::steady_clock::now() - arrival)
                    .count(),
                trace_id);
  return response;
}

std::string Router::routing_key_for(const json::Value& request) {
  if (request.has("fingerprint") && request.at("fingerprint").is_string()) {
    return "fp:" + request.at("fingerprint").as_string();
  }
  if (request.has("generator")) {
    std::string key = "gen:";
    append_canonical(key, request.at("generator"));
    return key;
  }
  // DIMACS sources route by the *graph's* content fingerprint — the
  // same identity the worker will mint on LOAD — so a later
  // fingerprint-addressed SOLVE lands on the replica set that holds the
  // graph. Parsing here costs one extra pass; a malformed source falls
  // back to a content-hash key and lets a worker own the BAD_REQUEST.
  if (request.has("dimacs") && request.at("dimacs").is_string()) {
    try {
      std::istringstream is(request.at("dimacs").as_string());
      return "fp:" + fingerprint_hex(read_dimacs(is));
    } catch (const std::exception&) {
      return "dimacs:" + std::to_string(hash_bytes(request.at("dimacs").as_string()));
    }
  }
  if (request.has("path") && request.at("path").is_string()) {
    try {
      return "fp:" + fingerprint_hex(load_dimacs(request.at("path").as_string()));
    } catch (const std::exception&) {
      return "path:" + request.at("path").as_string();
    }
  }
  return "";
}

std::vector<std::size_t> Router::replica_indices(std::string_view key) const {
  std::vector<std::size_t> out;
  if (ring_.empty()) return out;
  const std::size_t want = std::min(options_.replicas, backends_.size());
  const std::uint64_t point = hash_bytes(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(point, std::size_t{0}));
  for (std::size_t step = 0; step < ring_.size() && out.size() < want; ++step) {
    if (it == ring_.end()) it = ring_.begin();
    const std::size_t idx = it->second;
    if (std::find(out.begin(), out.end(), idx) == out.end()) out.push_back(idx);
    ++it;
  }
  return out;
}

std::vector<std::size_t> Router::candidate_order(const json::Value& request,
                                                 const std::string& verb) {
  const std::string key = routing_key_for(request);
  if (key.empty()) {
    // No affinity: rotate the whole fleet round-robin.
    std::vector<std::size_t> order(backends_.size());
    const std::size_t start = round_robin_.fetch_add(1) % backends_.size();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      order[i] = (start + i) % backends_.size();
    }
    return order;
  }
  std::vector<std::size_t> replicas = replica_indices(key);
  // Generator-addressed SOLVEs spread across the replica set (the spec
  // regenerates the graph anywhere, and spreading keeps the hot graph
  // resident on all R workers). Fingerprint-addressed SOLVEs go
  // primary-first: only workers that saw the LOAD hold the graph.
  if (verb == "SOLVE" && request.has("generator") && replicas.size() > 1) {
    std::rotate(replicas.begin(),
                replicas.begin() + static_cast<std::ptrdiff_t>(
                                       replica_spread_.fetch_add(1) % replicas.size()),
                replicas.end());
  }
  return replicas;
}

// --- Router: upstream plumbing -------------------------------------------

std::unique_ptr<Client> Router::pop_idle_connection(Backend& b) {
  std::lock_guard lock(b.mutex);
  if (b.idle.empty()) return nullptr;
  std::unique_ptr<Client> c = std::move(b.idle.back());
  b.idle.pop_back();
  return c;
}

std::unique_ptr<Client> Router::dial_connection(Backend& b) {
  try {
    if (b.address.kind == BackendAddress::Kind::kUnix) {
      return std::make_unique<Client>(Client::connect_unix(b.address.path));
    }
    return std::make_unique<Client>(Client::connect_tcp(b.address.host, b.address.port));
  } catch (const TransportError&) {
    return nullptr;
  }
}

void Router::release_connection(Backend& b, std::unique_ptr<Client> client) {
  std::lock_guard lock(b.mutex);
  if (b.idle.size() < options_.pool_capacity) b.idle.push_back(std::move(client));
}

Router::Forward Router::roundtrip(Backend& b, std::unique_ptr<Client> client,
                                  std::string_view payload) {
  Forward out;
  if (!write_full(client->fd(), encode_frame(payload))) {
    out.status = Forward::Status::kNoBytes;  // no response byte arrived
    return out;
  }
  const ReadStatus st = read_frame(client->fd(), options_.max_frame_bytes, out.response);
  switch (st) {
    case ReadStatus::kOk:
      out.status = Forward::Status::kOk;
      release_connection(b, std::move(client));
      return out;
    case ReadStatus::kClosed:
      // Clean EOF before any response byte: the worker died (or closed)
      // without answering — safe to hedge an idempotent verb.
      out.status = Forward::Status::kNoBytes;
      return out;
    case ReadStatus::kBadMagic:
    case ReadStatus::kTooLarge:
    case ReadStatus::kTruncated:
      // Bytes arrived, then the stream broke: the worker may have
      // executed the request. NEVER hedged.
      out.status = Forward::Status::kPartial;
      return out;
  }
  out.status = Forward::Status::kPartial;
  return out;
}

Router::Forward Router::forward_once(Backend& b, std::string_view payload) {
  // A pooled connection may have gone stale while idle (the worker
  // restarted or timed it out) — indistinguishable, from one no-bytes
  // failure, from a dead backend. Staleness indicts the pool entry, not
  // the worker, so a pooled no-bytes failure retries once on a fresh
  // dial and only the fresh attempt's outcome reaches the caller (and
  // through it the breaker). Partial responses are never retried.
  if (std::unique_ptr<Client> pooled = pop_idle_connection(b)) {
    Forward out = roundtrip(b, std::move(pooled), payload);
    if (out.status != Forward::Status::kNoBytes) return out;
  }
  std::unique_ptr<Client> fresh = dial_connection(b);
  if (fresh == nullptr) {
    Forward out;
    out.status = Forward::Status::kNoBytes;  // connect failed: nothing sent
    return out;
  }
  return roundtrip(b, std::move(fresh), payload);
}

bool Router::backend_admit(Backend& b, bool ignore_draining) {
  std::lock_guard lock(b.mutex);
  if (!ignore_draining && b.draining) return false;
  const bool admitted = b.breaker.admit(std::chrono::steady_clock::now());
  b.breaker_gauge->set(breaker_state_code(b.breaker.state()));
  return admitted;
}

void Router::record_success(Backend& b) {
  std::lock_guard lock(b.mutex);
  const bool was_down = !b.up;
  b.breaker.on_success();
  b.up = true;
  b.up_gauge->set(1);
  b.breaker_gauge->set(breaker_state_code(b.breaker.state()));
  if (was_down) metrics_.counter("mcr_router_backend_recoveries_total").add(1);
}

void Router::record_failure(Backend& b) {
  b.failures_total->add(1);
  std::lock_guard lock(b.mutex);
  const auto prev = b.breaker.state();
  b.breaker.on_failure(std::chrono::steady_clock::now());
  if (b.breaker.state() == CircuitBreaker::State::kOpen &&
      prev != CircuitBreaker::State::kOpen) {
    metrics_.counter("mcr_router_breaker_opens_total").add(1);
    b.up = false;
    b.up_gauge->set(0);
  }
  b.breaker_gauge->set(breaker_state_code(b.breaker.state()));
}

void Router::set_draining(Backend& b, bool draining) {
  std::lock_guard lock(b.mutex);
  b.draining = draining;
  b.draining_gauge->set(draining ? 1 : 0);
}

// --- Router: forwarding with failover ------------------------------------

std::string Router::forward_with_failover(
    const json::Value& request, const std::string& verb, const std::string& payload,
    std::chrono::steady_clock::time_point arrival) {
  const std::vector<std::size_t> order = candidate_order(request, verb);
  const double deadline_ms = request.number_or("deadline_ms", 0.0);
  const auto deadline =
      deadline_ms > 0.0
          ? arrival + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(deadline_ms))
          : std::chrono::steady_clock::time_point::max();
  const bool client_has_parent = request.has("parent_span");

  int attempts = 0;
  std::string retryable_response;  // last BUSY/SHUTTING_DOWN answer seen
  for (const std::size_t idx : order) {
    if (attempts >= options_.max_attempts) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      // The retry budget is carved from the deadline: when it is spent,
      // answer locally instead of burning a worker's time. Checked
      // BEFORE backend_admit(): admit() may consume a half-open
      // breaker's single trial slot, and an attempt abandoned here
      // would never report back, wedging the breaker half-open and the
      // backend out of rotation for good.
      return error_payload(kErrDeadline, "deadline exceeded in router");
    }
    Backend& b = *backends_[idx];
    if (!backend_admit(b, /*ignore_draining=*/false)) continue;
    ++attempts;
    if (attempts > 1) metrics_.counter("mcr_router_failovers_total").add(1);
    b.requests_total->add(1);
    std::string attempt_payload =
        client_has_parent
            ? payload
            : splice_field_front(payload, "parent_span",
                                 "router/attempt/" + std::to_string(attempts));
    const auto t0 = std::chrono::steady_clock::now();
    const Forward fwd = forward_once(b, attempt_payload);
    if (fwd.status == Forward::Status::kOk) {
      b.latency_window->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
      if (!looks_like_error(fwd.response)) {
        record_success(b);
        return fwd.response;
      }
      // The backend answered, so its transport is healthy; what kind of
      // error decides whether we fail over.
      std::string code;
      try {
        code = json::parse(fwd.response).string_or("code", "");
      } catch (const std::exception&) {
        code.clear();
      }
      if (code == kErrShuttingDown) {
        // Passive drain detection: stop routing new work there; the
        // prober flips it back when the worker returns.
        record_success(b);
        set_draining(b, true);
        retryable_response = fwd.response;
        continue;
      }
      if (code == kErrBusy) {
        record_success(b);
        retryable_response = fwd.response;
        continue;
      }
      // Deterministic errors (BAD_REQUEST, NOT_FOUND, DEADLINE_EXCEEDED,
      // INTERNAL): another replica would answer the same or worse.
      record_success(b);
      return fwd.response;
    }
    if (fwd.status == Forward::Status::kPartial) {
      record_failure(b);
      metrics_.counter("mcr_router_partial_responses_total").add(1);
      return error_payload(kErrUpstream,
                           "worker " + b.address.name +
                               " response cut off mid-frame; not retried "
                               "(the request may have executed)");
    }
    // kNoBytes: the worker never answered — hedge on the next replica.
    record_failure(b);
  }
  if (!retryable_response.empty()) return retryable_response;
  metrics_.counter("mcr_router_no_replica_total").add(1);
  return error_payload(kErrUpstream, "no healthy replica for " + verb +
                                         " (fleet of " +
                                         std::to_string(backends_.size()) +
                                         ", attempts " + std::to_string(attempts) +
                                         ")");
}

std::string Router::handle_load(const json::Value& request, const std::string& payload) {
  const std::string key = routing_key_for(request);
  std::vector<std::size_t> targets;
  if (key.empty()) {
    // No loadable source named; one worker's BAD_REQUEST explains it.
    const auto order = candidate_order(request, "LOAD");
    if (!order.empty()) targets.push_back(order.front());
  } else {
    targets = replica_indices(key);
  }
  // LOAD fans out to every replica so a later fingerprint-addressed
  // SOLVE can be served by any of them (and failover has somewhere to
  // go). First ok response wins; per-backend failures are tolerated as
  // long as one replica holds the graph.
  std::string ok_response;
  std::string error_response;
  for (const std::size_t idx : targets) {
    Backend& b = *backends_[idx];
    if (!backend_admit(b, /*ignore_draining=*/false)) continue;
    b.requests_total->add(1);
    const Forward fwd = forward_once(b, payload);
    if (fwd.status == Forward::Status::kOk) {
      record_success(b);
      if (!looks_like_error(fwd.response)) {
        if (ok_response.empty()) ok_response = fwd.response;
      } else if (error_response.empty()) {
        error_response = fwd.response;
      }
    } else {
      record_failure(b);
      if (fwd.status == Forward::Status::kPartial) {
        metrics_.counter("mcr_router_partial_responses_total").add(1);
      }
    }
  }
  if (!ok_response.empty()) return ok_response;
  if (!error_response.empty()) return error_response;
  metrics_.counter("mcr_router_no_replica_total").add(1);
  return error_payload(kErrUpstream, "no healthy replica accepted the LOAD");
}

std::string Router::handle_reload_fanout(const std::string& payload) {
  // RELOAD is NOT idempotent-retried: each eligible backend gets exactly
  // one attempt, and the per-worker outcomes are reported verbatim.
  std::size_t ok_count = 0;
  std::size_t failed = 0;
  std::ostringstream workers;
  workers << '{';
  bool first = true;
  for (const auto& bp : backends_) {
    Backend& b = *bp;
    if (!backend_admit(b, /*ignore_draining=*/false)) continue;
    b.requests_total->add(1);
    const Forward fwd = forward_once(b, payload);
    if (!first) workers << ',';
    first = false;
    workers << '"' << json_escape(b.address.name) << "\":";
    if (fwd.status == Forward::Status::kOk) {
      record_success(b);
      if (looks_like_error(fwd.response)) {
        ++failed;
      } else {
        ++ok_count;
      }
      workers << fwd.response;
    } else {
      record_failure(b);
      ++failed;
      workers << error_payload(kErrUpstream, "transport error during RELOAD");
    }
  }
  workers << '}';
  std::ostringstream os;
  if (failed == 0 && ok_count > 0) {
    os << "{\"status\":\"ok\",\"reloaded\":" << ok_count
       << ",\"workers\":" << workers.str() << "}";
  } else {
    os << "{\"status\":\"error\",\"code\":\"" << (ok_count == 0 ? kErrUpstream : kErrInternal)
       << "\",\"message\":\"RELOAD failed on " << failed << " of " << (ok_count + failed)
       << " workers\",\"reloaded\":" << ok_count << ",\"workers\":" << workers.str()
       << "}";
  }
  return os.str();
}

std::string Router::handle_stats(const json::Value& request) {
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"service\":\"mcr_router\",\"uptime_seconds\":"
     << fmt_json_double(listener_.uptime_seconds()) << ",\"replicas\":"
     << std::min(options_.replicas, backends_.size())
     << ",\"window_seconds\":" << fmt_json_double(options_.stats_window_s)
     << ",\"backends\":[";
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = *backends_[i];
    if (i > 0) os << ',';
    bool up = false;
    bool draining = false;
    CircuitBreaker::State state = CircuitBreaker::State::kClosed;
    {
      std::lock_guard lock(b.mutex);
      up = b.up;
      draining = b.draining;
      state = b.breaker.state();
    }
    const auto snap = b.latency_window->snapshot();
    const auto cumulative = obs::SlidingWindowHistogram::cumulative_counts(snap);
    os << "{\"name\":\"" << json_escape(b.address.name) << "\",\"up\":"
       << (up ? "true" : "false") << ",\"draining\":" << (draining ? "true" : "false")
       << ",\"breaker\":\"" << breaker_state_name(state) << "\",\"requests\":"
       << b.requests_total->value() << ",\"failures\":" << b.failures_total->value();
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50_ms", 0.50},
          std::pair<const char*, double>{"p95_ms", 0.95},
          std::pair<const char*, double>{"p99_ms", 0.99}}) {
      const auto v = obs::histogram_quantile(snap.bounds, cumulative, snap.count, q);
      os << ",\"" << label << "\":";
      if (v.has_value()) {
        os << fmt_json_double(*v * 1000.0);
      } else {
        os << "null";
      }
    }
    os << '}';
  }
  os << ']';
  // {"fanout":true} additionally embeds each reachable worker's own
  // STATS response verbatim — the fleet-wide view in one frame.
  const bool fanout = request.has("fanout") && request.at("fanout").is_bool() &&
                      request.at("fanout").as_bool();
  if (fanout) {
    os << ",\"workers\":{";
    bool first = true;
    const std::string stats_payload = "{\"verb\":\"STATS\"}";
    for (const auto& bp : backends_) {
      Backend& b = *bp;
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(b.address.name) << "\":";
      if (!backend_admit(b, /*ignore_draining=*/true)) {
        os << error_payload(kErrUpstream, "breaker open");
        continue;
      }
      const Forward fwd = forward_once(b, stats_payload);
      if (fwd.status == Forward::Status::kOk) {
        record_success(b);
        os << fwd.response;
      } else {
        record_failure(b);
        os << error_payload(kErrUpstream, "transport error during STATS fan-out");
      }
    }
    os << '}';
  }
  // "prometheus" stays the last field: clients cut it out by suffix,
  // exactly as with the worker's own STATS.
  os << ",\"metrics\":" << metrics_.json() << ",\"prometheus\":\""
     << json_escape(metrics_.prometheus_text()) << "\"}";
  return os.str();
}

std::string Router::handle_health() {
  std::size_t up = 0;
  std::size_t draining = 0;
  for (const auto& bp : backends_) {
    std::lock_guard lock(bp->mutex);
    if (bp->up) ++up;
    if (bp->draining) ++draining;
  }
  const bool healthy = up > 0 && running_.load();
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"service\":\"mcr_router\",\"healthy\":"
     << (healthy ? "true" : "false") << ",\"draining\":"
     << (running_.load() ? "false" : "true") << ",\"backends_total\":"
     << backends_.size() << ",\"backends_up\":" << up
     << ",\"backends_draining\":" << draining
     << ",\"uptime_seconds\":" << fmt_json_double(listener_.uptime_seconds()) << "}";
  return os.str();
}

// --- Router: health probing ----------------------------------------------

void Router::probe_backend(Backend& b) {
  metrics_.counter("mcr_router_probes_total").add(1);
  {
    // Respect the breaker cooldown: a freshly-opened breaker silences
    // probes too, so a flapping worker is not hammered. admit() flips
    // open -> half-open once the (jittered) cooldown expires; the probe
    // is then the trial request.
    std::lock_guard lock(b.mutex);
    if (!b.breaker.admit(std::chrono::steady_clock::now())) return;
    b.breaker_gauge->set(breaker_state_code(b.breaker.state()));
  }
  const Forward fwd = forward_once(b, "{\"verb\":\"HEALTH\"}");
  if (fwd.status != Forward::Status::kOk) {
    metrics_.counter("mcr_router_probe_failures_total").add(1);
    record_failure(b);
    return;
  }
  bool draining = false;
  try {
    const json::Value health = json::parse(fwd.response);
    draining = health.has("draining") && health.at("draining").is_bool() &&
               health.at("draining").as_bool();
  } catch (const std::exception&) {
    // Unparseable HEALTH is a failing probe.
    metrics_.counter("mcr_router_probe_failures_total").add(1);
    record_failure(b);
    return;
  }
  record_success(b);
  set_draining(b, draining);
}

void Router::probe_now() {
  for (const auto& b : backends_) probe_backend(*b);
}

void Router::prober_loop() {
  for (;;) {
    // prober_jitter_state_ is touched only by this thread after start().
    const double sleep_ms =
        uniform(prober_jitter_state_, 0.75 * options_.probe_interval_ms,
                1.25 * options_.probe_interval_ms);
    {
      std::unique_lock lock(prober_mutex_);
      prober_cv_.wait_for(lock,
                          std::chrono::duration<double, std::milli>(sleep_ms),
                          [this] { return stopping_prober_; });
      if (stopping_prober_) return;
    }
    probe_now();
  }
}

std::vector<Router::BackendSnapshot> Router::backend_snapshots() {
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (const auto& bp : backends_) {
    Backend& b = *bp;
    BackendSnapshot s;
    s.name = b.address.name;
    {
      std::lock_guard lock(b.mutex);
      s.up = b.up;
      s.draining = b.draining;
      s.breaker = b.breaker.state();
    }
    s.requests = b.requests_total->value();
    s.failures = b.failures_total->value();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mcr::svc
