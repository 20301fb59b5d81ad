#include "svc/server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/driver.h"
#include "core/registry.h"
#include "fault/fault.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/io.h"
#include "obs/build_info.h"
#include "store/format.h"
#include "support/json.h"
#include "support/stats.h"
#include "svc/result_json.h"

namespace mcr::svc {

namespace {

/// Client-facing request error carrying a protocol error code.
struct RequestError : std::runtime_error {
  RequestError(std::string code_, const std::string& message)
      : std::runtime_error(message), code(std::move(code_)) {}
  std::string code;
};

struct Objective {
  bool maximize = false;
  bool ratio = false;
  std::string name;  // canonical string
};

Objective parse_objective(const std::string& s) {
  if (s == "min_mean") return {false, false, s};
  if (s == "min_ratio") return {false, true, s};
  if (s == "max_mean") return {true, false, s};
  if (s == "max_ratio") return {true, true, s};
  throw RequestError(kErrBadRequest,
                     "unknown objective '" + s +
                         "' (expected min_mean | min_ratio | max_mean | max_ratio)");
}

std::int64_t int_field(const json::Value& obj, const std::string& key,
                       std::int64_t fallback) {
  if (!obj.has(key)) return fallback;
  return static_cast<std::int64_t>(obj.at(key).as_double());
}

Graph generate_from_spec(const json::Value& spec) {
  const std::string family = spec.string_or("family", "");
  const auto seed = static_cast<std::uint64_t>(int_field(spec, "seed", 1));
  if (family == "sprand") {
    gen::SprandConfig cfg;
    cfg.n = static_cast<NodeId>(int_field(spec, "n", 512));
    cfg.m = static_cast<ArcId>(int_field(spec, "m", 2 * int_field(spec, "n", 512)));
    cfg.min_weight = int_field(spec, "wmin", 1);
    cfg.max_weight = int_field(spec, "wmax", 10000);
    cfg.min_transit = int_field(spec, "tmin", 1);
    cfg.max_transit = int_field(spec, "tmax", 1);
    cfg.seed = seed;
    return gen::sprand(cfg);
  }
  if (family == "circuit") {
    gen::CircuitConfig cfg;
    cfg.registers = static_cast<NodeId>(int_field(spec, "n", 512));
    cfg.module_size = static_cast<NodeId>(int_field(spec, "module", 32));
    cfg.seed = seed;
    return gen::circuit(cfg);
  }
  if (family == "ring") {
    return gen::random_ring(static_cast<NodeId>(int_field(spec, "n", 64)),
                            int_field(spec, "wmin", 1), int_field(spec, "wmax", 100),
                            seed);
  }
  throw RequestError(kErrBadRequest, "unknown generator family '" + family +
                                         "' (expected sprand | circuit | ring)");
}

/// "PING | LOAD | ... | RELOAD" for the unknown-verb message.
std::string verb_list() {
  std::string out;
  for (const std::string_view verb : kVerbs) {
    if (!out.empty()) out += " | ";
    out += verb;
  }
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      graphs_(options_.graph_entries, &metrics_),
      cache_(options_.cache_entries, &metrics_),
      flight_(options_.flight),
      meter_(metrics_, options_.stats_window_s, options_.stats_window_slots),
      listener_(options_, metrics_,
                [this](const std::string& payload) { return handle_request(payload); }) {
  if (!options_.request_log_path.empty()) {
    request_log_ = std::make_unique<RequestLog>(options_.request_log_path);
    if (!request_log_->ok()) {
      throw std::runtime_error("Server: cannot open request log " +
                               options_.request_log_path);
    }
  }
}

Server::~Server() { stop_and_drain(); }

void Server::start() {
  if (running_.load()) throw std::runtime_error("Server::start: already running");
  obs::export_build_info(metrics_);

  // Everything that can fail runs before the listener binds: a server
  // configured with a bad pack should fail to start, not serve
  // NOT_FOUND, and a bad --stats-out path must not strand a bound
  // socket file.
  if (!options_.dataset_path.empty()) attach_dataset(options_.dataset_path);
  const bool pump_enabled =
      options_.stats_interval_s > 0.0 && !options_.stats_out_path.empty();
  if (pump_enabled) {
    stats_out_.open(options_.stats_out_path, std::ios::app);
    if (!stats_out_) {
      throw std::runtime_error("Server: cannot open stats output " +
                               options_.stats_out_path);
    }
  }
  try {
    listener_.start();  // unwinds its own fds and socket file on a throw
  } catch (...) {
    stats_out_.close();
    throw;
  }
  running_.store(true);
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  if (pump_enabled) stats_thread_ = std::thread([this] { stats_loop(); });
}

void Server::stop_and_drain() {
  // Raise the drain guard before running_ flips: any thread that sees
  // running() == false is guaranteed attach_dataset already refuses.
  draining_.store(true);
  if (!running_.exchange(false)) return;
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;  // new SOLVE admissions now answer SHUTTING_DOWN
  }
  // 1. The listener stops accepting, half-closes every connection and
  //    joins the handlers; each finishes its current request first (the
  //    dispatcher is still alive to complete queued jobs).
  listener_.drain();
  // 2. Dispatcher exits once the (now producer-free) queue drains.
  {
    std::lock_guard lock(queue_mutex_);
    stopping_dispatch_ = true;
  }
  queue_cv_.notify_all();
  dispatch_thread_.join();
  // 3. Watchdog.
  {
    std::lock_guard lock(deadline_mutex_);
    stopping_watchdog_ = true;
  }
  deadline_cv_.notify_all();
  watchdog_thread_.join();
  // 4. Stats pump, last — its final line then reflects every request
  //    that completed during the drain.
  if (stats_thread_.joinable()) {
    {
      std::lock_guard lock(stats_mutex_);
      stopping_stats_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
    stats_out_.close();
  }
}

std::string Server::preload_dimacs_file(const std::string& path) {
  return graphs_.add(load_dimacs(path));
}

std::shared_ptr<const store::Dataset> Server::attach_dataset(const std::string& path) {
  // A SIGHUP (or RELOAD frame) racing stop_and_drain must not publish a
  // generation nothing will serve — and must not touch the watcher while
  // teardown is in flight.
  if (draining_.load()) {
    throw RequestError(kErrShuttingDown,
                       "attach_dataset: server is draining; reload refused");
  }
  // attach() validates the pack fully before publishing; on a throw the
  // previously published generation (if any) is untouched and keeps
  // serving — that is the zero-downtime guarantee of RELOAD.
  std::shared_ptr<const store::Dataset> ds = dataset_.attach(path);
  graphs_.add_shared(ds->fingerprint, ds->graph);
  metrics_.gauge("mcr_dataset_generation")
      .set(static_cast<std::int64_t>(ds->generation));
  metrics_.counter("mcr_dataset_attaches_total").add(1);
  return ds;
}

std::shared_ptr<const store::Dataset> Server::reload_dataset() {
  const std::shared_ptr<const store::Dataset> cur = dataset_.current();
  if (cur == nullptr) {
    throw std::runtime_error("reload_dataset: no dataset attached");
  }
  return attach_dataset(cur->path);
}

std::string Server::handle_request(const std::string& payload) {
  Timer timer;
  RequestContext ctx;
  std::string response;
  try {
    // Allocation fault point: an injected kFail here behaves exactly
    // like the first allocation of request handling failing.
    if (MCR_FAULT_POINT(fault::Site::kAlloc).action == fault::Action::kFail) {
      throw std::bad_alloc();
    }
    const json::Value req = json::parse(payload);
    ctx.verb = req.string_or("verb", "");
    const std::string wire_id = req.string_or("trace_id", "");
    ctx.parent_span = req.string_or("parent_span", "");
    if (ctx.parent_span.size() > kMaxTraceIdBytes) {
      ctx.parent_span.resize(kMaxTraceIdBytes);
    }
    if (!wire_id.empty() && !is_valid_trace_id(wire_id)) {
      throw RequestError(kErrBadRequest,
                         "invalid trace_id (expected 1..64 characters from "
                         "[0-9a-zA-Z_-])");
    }
    ctx.trace_id = wire_id.empty() ? generate_trace_id() : wire_id;
    ctx.trace = flight_.begin(ctx.trace_id, ctx.verb, ctx.parent_span);
    // Every span this thread emits goes to both the legacy process-wide
    // sink (--trace FILE) and this request's flight-recorder trace.
    obs::TeeSink tee(options_.trace, ctx.trace.get());
    const obs::SinkScope sink_scope(tee.effective());
    const obs::Span span(obs::EventKind::kRequest, ctx.verb);
    if (ctx.verb == "PING") {
      response = "{\"status\":\"ok\",\"service\":\"mcr\"}";
    } else if (ctx.verb == "LOAD") {
      response = handle_load(req, ctx);
    } else if (ctx.verb == "SOLVE") {
      response = handle_solve(req, ctx);
    } else if (ctx.verb == "SOLVERS") {
      response = handle_solvers();
    } else if (ctx.verb == "STATS") {
      response = handle_stats(req);
    } else if (ctx.verb == "HEALTH") {
      response = handle_health();
    } else if (ctx.verb == "TRACE") {
      response = handle_trace(req);
    } else if (ctx.verb == "RELOAD") {
      response = handle_reload(req, ctx);
    } else {
      throw RequestError(kErrBadRequest, "unknown verb '" + ctx.verb +
                                             "' (expected " + verb_list() + ")");
    }
  } catch (const RequestError& e) {
    ctx.error_code = e.code;
    response = error_payload(e.code, e.what());
  } catch (const std::bad_alloc&) {
    // Out-of-memory is the server's problem, not the request's: report
    // INTERNAL (retryable-by-human), never BAD_REQUEST.
    metrics_.counter("mcr_connection_errors_total").add(1);
    ctx.error_code = kErrInternal;
    response = error_payload(kErrInternal, "out of memory handling request");
  } catch (const std::exception& e) {
    ctx.error_code = kErrBadRequest;
    response = error_payload(kErrBadRequest, e.what());
  }
  // Echo (or mint, when the request never parsed) the trace id on every
  // response, error payloads included. Spliced at the front so the
  // response object's *last* field stays what it was — callers extract
  // "result" by suffix.
  if (ctx.trace_id.empty()) ctx.trace_id = generate_trace_id();
  response = with_trace_id(response, ctx.trace_id);
  finish_request(ctx, timer.millis());
  return response;
}

void Server::finish_request(RequestContext& ctx, double total_ms) {
  if (ctx.trace != nullptr) {
    const auto note = [&](const char* key, const std::string& value) {
      if (!value.empty()) ctx.trace->note(key, value);
    };
    note("fingerprint", ctx.fingerprint);
    note("algo", ctx.algo);
    note("objective", ctx.objective);
    note("cache", ctx.cache);
    flight_.finish(ctx.trace, ctx.error_code, total_ms);
  }
  if (request_log_ != nullptr) {
    RequestLog::Entry entry;
    entry.ts_ms = flight_.now_us() / 1000.0;
    entry.trace_id = ctx.trace_id;
    entry.verb = ctx.verb;
    entry.fingerprint = ctx.fingerprint;
    entry.algo = ctx.algo;
    entry.objective = ctx.objective;
    entry.cache = ctx.cache;
    entry.queue_ms = ctx.queue_ms;
    entry.solve_ms = ctx.solve_ms;
    entry.deadline_ms = ctx.deadline_ms;
    entry.code = ctx.error_code;
    entry.total_ms = total_ms;
    request_log_->write(entry);
  }
  meter_.record(ctx.verb, total_ms / 1000.0, ctx.trace_id);
}

std::string Server::handle_trace(const json::Value& req) const {
  obs::FlightRecorder::Filter filter;
  // "id" (not "trace_id") selects the *target* trace — "trace_id" on a
  // TRACE request is, as on every request, this request's own context.
  filter.trace_id = req.string_or("id", "");
  filter.verb = req.string_or("match_verb", "");
  filter.min_ms = req.number_or("min_ms", -1.0);
  const double limit = req.number_or("limit", 32.0);
  filter.limit = limit <= 0.0 ? 0 : static_cast<std::size_t>(limit);
  const std::size_t count = flight_.select(filter).size();
  // chrome_trace is one self-contained Chrome trace_event JSON object;
  // clients cut it out and hand it straight to Perfetto.
  std::string out = "{\"status\":\"ok\",\"count\":" + std::to_string(count);
  out += ",\"ring_size\":" + std::to_string(flight_.ring_size());
  out += ",\"pinned_size\":" + std::to_string(flight_.pinned_size());
  out += ",\"finished_total\":" + std::to_string(flight_.finished_total());
  out += ",\"evicted_total\":" + std::to_string(flight_.evicted_total());
  out += ",\"chrome_trace\":";
  out += flight_.chrome_trace_json(filter);
  out += "}";
  return out;
}

std::string Server::handle_reload(const json::Value& req, RequestContext& ctx) {
  std::string path = req.has("path") ? req.at("path").as_string() : std::string();
  if (path.empty()) {
    const std::shared_ptr<const store::Dataset> cur = dataset_.current();
    if (cur == nullptr) {
      throw RequestError(kErrBadRequest,
                         "no dataset attached (start with --dataset, or pass "
                         "\"path\" to RELOAD)");
    }
    path = cur->path;
  }
  std::shared_ptr<const store::Dataset> ds;
  try {
    ds = attach_dataset(path);
  } catch (const store::PackError& e) {
    // The swap never happened; the old generation keeps serving.
    throw RequestError(kErrBadRequest,
                       std::string("cannot attach dataset: ") + e.what());
  }
  ctx.fingerprint = ds->fingerprint;
  std::string out = "{\"status\":\"ok\",\"path\":\"" + json_escape(ds->path) +
                    "\",\"fingerprint\":\"" + ds->fingerprint +
                    "\",\"generation\":" + std::to_string(ds->generation) +
                    ",\"nodes\":" + std::to_string(ds->graph->num_nodes()) +
                    ",\"arcs\":" + std::to_string(ds->graph->num_arcs()) +
                    ",\"bytes\":" + std::to_string(ds->bytes) + "}";
  return out;
}

std::pair<std::shared_ptr<const Graph>, std::string> Server::resolve_graph(
    const json::Value& req) {
  if (req.has("fingerprint")) {
    const std::string fp = req.at("fingerprint").as_string();
    std::shared_ptr<const Graph> g = graphs_.find(fp);
    if (g == nullptr) {
      // The attached dataset is authoritative even if LRU pressure from
      // LOADed graphs evicted its registry entry: re-register instead
      // of bouncing the request.
      if (const auto ds = dataset_.current();
          ds != nullptr && ds->fingerprint == fp) {
        graphs_.add_shared(ds->fingerprint, ds->graph);
        return {ds->graph, fp};
      }
      throw RequestError(kErrNotFound,
                         "no graph with fingerprint " + fp +
                             " is resident (LOAD it first, or it was evicted)");
    }
    return {std::move(g), fp};
  }
  Graph loaded = [&]() -> Graph {
    if (req.has("dimacs")) {
      std::istringstream is(req.at("dimacs").as_string());
      return read_dimacs(is);
    }
    if (req.has("path")) return load_dimacs(req.at("path").as_string());
    if (req.has("generator")) return generate_from_spec(req.at("generator"));
    throw RequestError(kErrBadRequest,
                       "no graph source (expected one of fingerprint | dimacs | "
                       "path | generator)");
  }();
  std::string fp = graphs_.add(std::move(loaded));
  std::shared_ptr<const Graph> g = graphs_.find(fp);
  if (g == nullptr) {  // capacity so small the new entry was evicted at once
    throw RequestError(kErrInternal, "graph evicted immediately after load");
  }
  return {std::move(g), fp};
}

std::string Server::handle_load(const json::Value& req, RequestContext& ctx) {
  const auto [graph, fp] = resolve_graph(req);
  ctx.fingerprint = fp;
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"fingerprint\":\"" << fp
     << "\",\"nodes\":" << graph->num_nodes() << ",\"arcs\":" << graph->num_arcs()
     << ",\"resident_graphs\":" << graphs_.size() << "}";
  return os.str();
}

std::string Server::handle_solvers() const {
  const SolverRegistry& reg = SolverRegistry::instance();
  std::string out = "{\"status\":\"ok\",\"solvers\":[";
  bool first = true;
  for (const std::string& name : reg.all_names()) {
    const SolverInfo& info = reg.info(name);
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(name) + "\",\"kind\":\"";
    out += info.kind == ProblemKind::kCycleRatio ? "ratio" : "mean";
    out += "\",\"exact\":";
    out += info.exact ? "true" : "false";
    out += ",\"bound\":\"" + json_escape(info.bound) + "\"}";
  }
  out += "]}";
  return out;
}

std::string Server::handle_stats(const json::Value& req) const {
  std::string out = "{\"status\":\"ok\",\"uptime_seconds\":";
  out += fmt_json_double(listener_.uptime_seconds());
  out += ",\"build\":";
  out += obs::build_info_json();
  if (const auto ds = dataset_.current(); ds != nullptr) {
    out += ",\"dataset\":{\"path\":\"" + json_escape(ds->path) +
           "\",\"fingerprint\":\"" + ds->fingerprint +
           "\",\"generation\":" + std::to_string(ds->generation) +
           ",\"bytes\":" + std::to_string(ds->bytes) + "}";
  }
  // Opt-in: the windowed view costs a merge over every ring slot of
  // every per-verb instrument, so plain STATS callers don't pay it.
  if (req.has("window") && req.at("window").as_bool()) {
    out += ",\"window\":";
    out += meter_.window_json();
  }
  out += ",\"metrics\":";
  out += metrics_.json();
  // "prometheus" must stay the LAST field: clients cut the escaped text
  // out of the response by suffix (see docs/SERVICE.md).
  out += ",\"prometheus\":\"";
  out += json_escape(metrics_.prometheus_text());
  out += "\"}";
  return out;
}

std::string Server::handle_health() {
  std::size_t depth = 0;
  std::size_t in_flight = 0;
  bool stopping = false;
  {
    std::lock_guard lock(queue_mutex_);
    depth = queue_.size();
    in_flight = in_flight_;
    stopping = stopping_;
  }
  const std::size_t connections = listener_.connection_count();
  const auto now = std::chrono::steady_clock::now();
  const double uptime_s = listener_.uptime_seconds();
  const std::int64_t last_ns = last_solve_steady_ns_.load();
  const double last_solve_age_s =
      last_ns < 0 ? -1.0
                  : std::chrono::duration<double>(
                        now.time_since_epoch() - std::chrono::nanoseconds(last_ns))
                        .count();
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"healthy\":" << (stopping ? "false" : "true")
     << ",\"draining\":" << (stopping ? "true" : "false")
     << ",\"queue_depth\":" << depth << ",\"in_flight\":" << in_flight
     << ",\"queue_capacity\":" << options_.queue_capacity
     << ",\"connections\":" << connections << ",\"uptime_seconds\":" << uptime_s
     << ",\"last_solve_age_seconds\":" << last_solve_age_s << "}";
  return os.str();
}

std::string Server::telemetry_snapshot_json() {
  const std::int64_t ts_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::string out = "{\"ts_ms\":" + std::to_string(ts_ms);
  out += ",\"uptime_seconds\":" + fmt_json_double(listener_.uptime_seconds());
  out += ",\"window\":";
  out += meter_.window_json();
  out += ",\"gauges\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_.gauge_values()) {
    // mcr_build_info is a constant-1 info gauge with long labels —
    // provenance belongs in the report artifact, not on every line.
    if (name.rfind("mcr_build_info", 0) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":" + std::to_string(value);
  }
  out += "},\"counters_delta\":{";
  first = true;
  const auto counters = metrics_.counter_values();
  for (const auto& [name, value] : counters) {
    const auto prev = stats_prev_counters_.find(name);
    const std::uint64_t delta =
        prev == stats_prev_counters_.end() ? value : value - prev->second;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":" + std::to_string(delta);
  }
  out += "}}";
  stats_prev_counters_ = counters;
  return out;
}

void Server::stats_loop() {
  const auto interval = std::chrono::duration<double>(options_.stats_interval_s);
  std::unique_lock lock(stats_mutex_);
  for (;;) {
    // wait_for (not wait_until) drifts by a line's write time per tick —
    // fine for a telemetry feed, and immune to interval arithmetic
    // around suspends.
    if (stats_cv_.wait_for(lock, interval, [&] { return stopping_stats_; })) {
      // One final line at drain so even a run shorter than the interval
      // leaves a non-empty, parseable time series behind.
      stats_out_ << telemetry_snapshot_json() << '\n' << std::flush;
      return;
    }
    stats_out_ << telemetry_snapshot_json() << '\n' << std::flush;
  }
}

std::string Server::handle_solve(const json::Value& req, RequestContext& ctx) {
  auto [graph, fp] = resolve_graph(req);
  const Objective objective = parse_objective(req.string_or("objective", "min_mean"));
  const std::string algo =
      req.string_or("algo", objective.ratio ? "howard_ratio" : "howard");
  ctx.fingerprint = fp;
  ctx.algo = algo;
  ctx.objective = objective.name;
  const SolverRegistry& reg = SolverRegistry::instance();
  bool solver_is_ratio = false;
  try {
    solver_is_ratio = reg.info(algo).kind == ProblemKind::kCycleRatio;
  } catch (const std::out_of_range& e) {
    // The registry message lists every registered solver.
    throw RequestError(kErrBadRequest, e.what());
  }
  if (solver_is_ratio != objective.ratio) {
    throw RequestError(kErrBadRequest,
                       "solver '" + algo + "' solves cycle " +
                           (solver_is_ratio ? "ratio" : "mean") +
                           " but the objective is " + objective.name);
  }

  const CacheKey key{fp, objective.name, algo};
  ResultCache::Outcome outcome = cache_.acquire(key);
  const auto respond_ok = [&](const CycleResult& r, double solve_ms, bool cached) {
    std::string out = "{\"status\":\"ok\",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"fingerprint\":\"" + fp + "\",\"result\":";
    out += result_json(r, algo, objective.name, solve_ms);
    out += "}";
    return out;
  };
  const auto respond_error = [&](const std::string& code,
                                 const std::string& message) {
    ctx.error_code = code;
    return error_payload(code, message);
  };
  if (outcome.role == ResultCache::Role::kHit) {
    ctx.cache = "hit";
    return respond_ok(outcome.result, outcome.solve_ms, true);
  }
  if (outcome.role == ResultCache::Role::kJoined) {
    ctx.cache = "join";
    if (!outcome.error_code.empty()) {
      return respond_error(outcome.error_code, outcome.error_message);
    }
    return respond_ok(outcome.result, outcome.solve_ms, true);
  }
  ctx.cache = "miss";

  // Flight leader: admission against the bounded queue.
  auto job = std::make_shared<SolveJob>();
  job->key = key;
  job->graph = std::move(graph);
  job->maximize = objective.maximize;
  job->ratio = objective.ratio;
  job->trace = ctx.trace;
  const double deadline_ms = req.number_or("deadline_ms", 0.0);
  if (deadline_ms > 0.0) ctx.deadline_ms = deadline_ms;
  if (deadline_ms > 0.0) {
    job->has_deadline = true;
    job->deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(
                        static_cast<std::int64_t>(deadline_ms * 1000.0));
    // Clock-skip fault point: a kSkip decision jumps the deadline into
    // the past by `param` ms, as if the process had been suspended that
    // long between accepting the request and scheduling it.
    const fault::Decision skip = MCR_FAULT_POINT(fault::Site::kClockSkip);
    if (skip.action == fault::Action::kSkip) {
      job->deadline -= std::chrono::milliseconds(skip.param);
    }
    // Arm BEFORE the job becomes visible to the dispatcher: an
    // already-expired deadline then cancels synchronously and the
    // dispatcher expires the job deterministically, instead of racing
    // the watchdog wake-up against the solve.
    arm_deadline(job);
  }
  job->enqueue_us = flight_.now_us();
  {
    std::lock_guard lock(queue_mutex_);
    if (stopping_) {
      cache_.fail(key, kErrShuttingDown, "server is draining");
      return respond_error(kErrShuttingDown, "server is draining");
    }
    if (in_flight_ >= options_.queue_capacity) {
      metrics_.counter("mcr_rejected_total").add(1);
      const std::string msg =
          "solve queue is full (capacity " +
          std::to_string(options_.queue_capacity) + "); retry later";
      cache_.fail(key, kErrBusy, msg);
      return respond_error(kErrBusy, msg);
    }
    ++in_flight_;
    queue_.push_back(job);
    metrics_.gauge("mcr_queue_depth").set(static_cast<std::int64_t>(queue_.size()));
    metrics_.gauge("mcr_in_flight").set(static_cast<std::int64_t>(in_flight_));
    if (queue_.size() > queue_depth_highwater_) {
      queue_depth_highwater_ = queue_.size();
      metrics_.gauge("mcr_queue_depth_highwater")
          .set(static_cast<std::int64_t>(queue_depth_highwater_));
    }
  }
  queue_cv_.notify_one();

  std::unique_lock job_lock(job->mutex);
  job->cv.wait(job_lock, [&] { return job->done; });
  ctx.queue_ms = job->queue_wait_ms;
  if (!job->ok) return respond_error(job->error_code, job->error_message);
  ctx.solve_ms = job->solve_ms;
  return respond_ok(job->result, job->solve_ms, false);
}

void Server::arm_deadline(const std::shared_ptr<SolveJob>& job) {
  // Already expired (tiny budget, or an injected clock skip): cancel
  // synchronously instead of registering a watchdog entry that would
  // fire "immediately" — synchronous cancellation is deterministic,
  // a watchdog wake-up is a race.
  if (job->deadline <= std::chrono::steady_clock::now()) {
    job->cancel->store(true);
    return;
  }
  {
    std::lock_guard lock(deadline_mutex_);
    deadlines_.emplace_back(job->deadline, job->cancel);
  }
  deadline_cv_.notify_all();
}

void Server::watchdog_loop() {
  std::unique_lock lock(deadline_mutex_);
  for (;;) {
    if (stopping_watchdog_) return;
    if (deadlines_.empty()) {
      deadline_cv_.wait(lock);
    } else {
      auto earliest = deadlines_.front().first;
      for (const auto& [when, token] : deadlines_) earliest = std::min(earliest, when);
      deadline_cv_.wait_until(lock, earliest);
    }
    if (stopping_watchdog_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = deadlines_.begin(); it != deadlines_.end();) {
      if (it->first <= now) {
        if (const auto token = it->second.lock()) token->store(true);
        it = deadlines_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Server::fulfill(SolveJob& job) {
  last_solve_steady_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count());
  {
    std::lock_guard lock(job.mutex);
    job.done = true;
  }
  job.cv.notify_all();
  {
    std::lock_guard lock(queue_mutex_);
    --in_flight_;
    metrics_.gauge("mcr_in_flight").set(static_cast<std::int64_t>(in_flight_));
  }
}

void Server::complete_ok(SolveJob& job, const CycleResult& result, double solve_ms) {
  cache_.publish(job.key, result, solve_ms);
  {
    std::lock_guard lock(job.mutex);
    job.ok = true;
    job.result = result;
    job.solve_ms = solve_ms;
  }
  fulfill(job);
}

void Server::complete_error(SolveJob& job, const std::string& code,
                            const std::string& message) {
  cache_.fail(job.key, code, message);
  {
    std::lock_guard lock(job.mutex);
    job.ok = false;
    job.error_code = code;
    job.error_message = message;
  }
  fulfill(job);
}

void Server::solve_single(SolveJob& job) {
  const auto solver = SolverRegistry::instance().create(job.key.algorithm);
  // Full-detail solver spans (component/iteration/...) flow into the
  // request's trace only when head sampling selected it; the
  // request-level outline (queue/dispatch spans) is recorded for every
  // request regardless.
  obs::TeeSink tee(options_.trace,
                   job.trace != nullptr && job.trace->sampled()
                       ? static_cast<obs::TraceSink*>(job.trace.get())
                       : nullptr);
  const SolveOptions so{.num_threads = options_.solve_threads,
                        .tile_arcs = options_.solve_tile_arcs,
                        .trace = tee.effective(),
                        .metrics = &metrics_,
                        .cancel = job.cancel.get()};
  const double dispatch_begin_us = flight_.now_us();
  // Recorded before complete_* so the span is inside the trace by the
  // time the leader thread wakes and finishes it.
  const auto record_dispatch = [&] {
    if (job.trace != nullptr) {
      job.trace->record_span(obs::EventKind::kDispatch, job.key.algorithm,
                             dispatch_begin_us, flight_.now_us());
    }
  };
  Timer timer;
  try {
    const Graph& g = *job.graph;
    const CycleResult r =
        job.maximize ? (job.ratio ? maximum_cycle_ratio(g, *solver, so)
                                  : maximum_cycle_mean(g, *solver, so))
        : job.ratio  ? minimum_cycle_ratio(g, *solver, so)
                     : minimum_cycle_mean(g, *solver, so);
    record_dispatch();
    complete_ok(job, r, timer.millis());
  } catch (const SolveCancelled&) {
    metrics_.counter("mcr_deadline_cancelled_total").add(1);
    record_dispatch();
    complete_error(job, kErrDeadline, "deadline exceeded during solve");
  } catch (const std::invalid_argument& e) {
    record_dispatch();
    complete_error(job, kErrBadRequest, e.what());
  } catch (const std::exception& e) {
    record_dispatch();
    complete_error(job, kErrInternal, e.what());
  }
}

void Server::process_batch(std::vector<std::shared_ptr<SolveJob>>& batch) {
  metrics_.histogram("mcr_batch_size", {1, 2, 4, 8, 16, 32, 64, 128})
      .observe(static_cast<double>(batch.size()));
  // Occupancy of the most recent dispatcher batch relative to batch_max,
  // in percent — a saturation signal (pinned at 100 = dispatcher is the
  // bottleneck, not arrival rate).
  metrics_.gauge("mcr_batch_occupancy")
      .set(options_.batch_max == 0
               ? 0
               : static_cast<std::int64_t>(100 * batch.size() /
                                           options_.batch_max));
  // Dispatcher pickup: retro-date each job's queue-wait span back to
  // its admission time. Recorded here (not at admission) because the
  // wait only has an end once the dispatcher owns the job.
  const double pickup_us = flight_.now_us();
  for (const std::shared_ptr<SolveJob>& job : batch) {
    job->queue_wait_ms = (pickup_us - job->enqueue_us) / 1000.0;
    if (job->trace != nullptr) {
      job->trace->record_span(obs::EventKind::kQueue, "queue",
                              job->enqueue_us, pickup_us);
    }
  }
  // Expire jobs whose deadline passed while queued — no work for them.
  std::vector<std::shared_ptr<SolveJob>> live;
  live.reserve(batch.size());
  for (std::shared_ptr<SolveJob>& job : batch) {
    if (job->cancel->load(std::memory_order_relaxed)) {
      metrics_.counter("mcr_deadline_cancelled_total").add(1);
      complete_error(*job, kErrDeadline, "deadline exceeded while queued");
    } else {
      live.push_back(std::move(job));
    }
  }
  // Group by (algorithm, objective); each group is one solver run.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::shared_ptr<SolveJob>>>
      groups;
  for (std::shared_ptr<SolveJob>& job : live) {
    groups[{job->key.algorithm, job->key.objective}].push_back(std::move(job));
  }
  for (auto& [group_key, jobs] : groups) {
    const bool maximize = jobs.front()->maximize;
    if (jobs.size() == 1 || maximize) {
      // Per-instance path: carries the job's own cancel token, so a
      // deadline interrupts the solve at driver phase boundaries.
      for (const std::shared_ptr<SolveJob>& job : jobs) solve_single(*job);
      continue;
    }
    // Batch path: one solve_many spreads the instances across the
    // work-stealing pool. Ratio instances are validated per job first
    // so one malformed graph cannot poison the group.
    std::vector<std::shared_ptr<SolveJob>> valid;
    valid.reserve(jobs.size());
    for (const std::shared_ptr<SolveJob>& job : jobs) {
      if (!job->ratio) {
        valid.push_back(job);
        continue;
      }
      try {
        validate_ratio_instance(*job->graph);
        valid.push_back(job);
      } catch (const std::exception& e) {
        complete_error(*job, kErrBadRequest, e.what());
      }
    }
    if (valid.empty()) continue;
    const double batch_begin_us = flight_.now_us();
    try {
      const auto solver = SolverRegistry::instance().create(group_key.first);
      std::vector<const Graph*> ptrs;
      ptrs.reserve(valid.size());
      for (const std::shared_ptr<SolveJob>& job : valid) ptrs.push_back(job->graph.get());
      const SolveOptions so{.num_threads = options_.solve_threads,
                            .tile_arcs = options_.solve_tile_arcs,
                            .trace = options_.trace,
                            .metrics = &metrics_};
      Timer timer;
      const std::vector<CycleResult> results =
          solve_many(std::span<const Graph* const>(ptrs), *solver, so);
      const double batch_ms = timer.millis();
      // Batched jobs share one dispatch interval. Full-detail solver
      // spans are not attributable per job on this path — sampling
      // detail applies on the per-instance path only.
      const double batch_end_us = flight_.now_us();
      for (std::size_t i = 0; i < valid.size(); ++i) {
        if (valid[i]->trace != nullptr) {
          valid[i]->trace->record_span(obs::EventKind::kDispatch,
                                       group_key.first, batch_begin_us,
                                       batch_end_us);
        }
        complete_ok(*valid[i], results[i], batch_ms);
      }
    } catch (const std::exception& e) {
      const double batch_end_us = flight_.now_us();
      for (const std::shared_ptr<SolveJob>& job : valid) {
        if (job->trace != nullptr) {
          job->trace->record_span(obs::EventKind::kDispatch, group_key.first,
                                  batch_begin_us, batch_end_us);
        }
        complete_error(*job, kErrInternal, e.what());
      }
    }
  }
}

void Server::dispatch_loop() {
  const obs::SinkScope sink_scope(options_.trace);
  for (;;) {
    std::vector<std::shared_ptr<SolveJob>> batch;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_dispatch_ || !queue_.empty(); });
      if (queue_.empty()) return;  // only when stopping_dispatch_
      while (!queue_.empty() && batch.size() < options_.batch_max) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.gauge("mcr_queue_depth").set(static_cast<std::int64_t>(queue_.size()));
    }
    process_batch(batch);
  }
}

}  // namespace mcr::svc
