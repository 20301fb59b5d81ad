// The two service workloads, driven over the wire with svc::Client
// against real daemons:
//
//  serve_warm   one mcr_serve; every SOLVE re-hits a primed pool, so the
//               parse -> resolve -> cache -> serialize path and the
//               transport do the work, not the kernel.
//  fleet_mixed  mcr_router --replicas 2 over two mcr_serve workers that
//               attach one .mcrpack; fingerprint hits, cold generator
//               solves, inline-DIMACS LOADs and PING/HEALTH, all across
//               the router hop.
//
// Each run: generate inputs from the seed; set up (start daemons, wait
// for readiness, prime caches) several times and keep the last; an
// open-loop Poisson phase timed from each request's intended send time;
// a closed-loop capacity phase; then, outside the timed window, check
// every answer against an in-process reference solve.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/driver.h"
#include "core/verify.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "graph/builder.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "graph/scc.h"
#include "proc.h"
#include "stats.h"
#include "store/pack_reader.h"
#include "store/pack_writer.h"
#include "support/json.h"
#include "support/prng.h"
#include "svc/client.h"
#include "workloads.h"

namespace perfbench {

namespace {

using mcr::svc::Client;

constexpr int kLoadThreads = 4;   // one process, at most nproc threads and connections
constexpr int kSetupRepeats = 5;  // set-ups per run; setup_s is their median

// --- Graphs and requests --------------------------------------------------

/// Where a request's graph comes from, so the benchmark can rebuild it
/// in-process for the reference solve.
struct GraphKey {
  char family = 's';  // 's' sprand, 'c' circuit, 'd' inline DIMACS pool, 'p' pack dataset
  std::int64_t n = 0;
  std::uint64_t seed = 0;
  int pool = -1;  // index into Inputs::dimacs for 'd'
  friend auto operator<=>(const GraphKey&, const GraphKey&) = default;
};

enum class Kind { kPing, kHealth, kSolveGen, kSolveFp, kLoad };

struct Request {
  Kind kind = Kind::kPing;
  std::string payload;
  GraphKey graph;     // solves and loads
  bool cold = false;  // must miss the result cache
  bool warm = false;  // must hit it (primed)
};

std::string sprand_spec(std::int64_t n, std::uint64_t seed) {
  return "{\"family\":\"sprand\",\"n\":" + std::to_string(n) + ",\"m\":" +
         std::to_string(3 * n) + ",\"wmin\":1,\"wmax\":10000,\"seed\":" + std::to_string(seed) +
         "}";
}

std::string circuit_spec(std::int64_t n, std::uint64_t seed) {
  return "{\"family\":\"circuit\",\"n\":" + std::to_string(n) +
         ",\"module\":32,\"seed\":" + std::to_string(seed) + "}";
}

mcr::Graph make_sprand(std::int64_t n, std::uint64_t seed) {
  mcr::gen::SprandConfig c;
  c.n = static_cast<mcr::NodeId>(n);
  c.m = static_cast<mcr::ArcId>(3 * n);
  c.min_weight = 1;
  c.max_weight = 10000;
  c.seed = seed;
  return mcr::gen::sprand(c);
}

mcr::Graph make_circuit(std::int64_t n, std::uint64_t seed) {
  mcr::gen::CircuitConfig c;
  c.registers = static_cast<mcr::NodeId>(n);
  c.module_size = 32;
  c.seed = seed;
  return mcr::gen::circuit(c);
}

std::string trace_id(char tag, std::uint64_t index) {
  return std::string(1, tag) + "-" + std::to_string(index);
}

std::string with_trace(const std::string& body, char tag, std::uint64_t index) {
  return "{\"trace_id\":\"" + trace_id(tag, index) + "\"," + body;
}

/// Everything a workload's requests are built from; a pure function of
/// the seed.
struct Inputs {
  std::vector<GraphKey> warm;         // primed generator specs (serve_warm)
  std::vector<std::string> warm_fp;   // their fingerprints
  std::vector<std::string> dimacs;    // inline-DIMACS LOAD pool (fleet_mixed)
  std::vector<std::string> pool_fp;   // fingerprints of the LOAD pool
  std::string pack_path;              // dataset (fleet_mixed)
  std::string pack_fp;
};

struct Mix {
  virtual ~Mix() = default;
  [[nodiscard]] virtual Request at(std::uint64_t index) const = 0;
};

/// serve_warm: 70% generator SOLVE over the warm pool (n=256 5%,
/// n=4096 35%, n=16384 30% of all requests), 20% PING, 10% SOLVE by
/// fingerprint of a warm-pool graph. The size weights put the median
/// inside the n=4096 class and the p99 inside the n=16384 class, not on
/// a boundary between two classes, where a small shift in the drawn mix
/// would move it a lot.
class WarmMix final : public Mix {
 public:
  static constexpr std::int64_t kSizes[] = {256, 4096, 16384};
  static constexpr int kSeedsPerSize = 2;

  WarmMix(std::uint64_t seed, const Inputs& in) : seed_(seed), in_(in) {}
  [[nodiscard]] Request at(std::uint64_t index) const override {
    mcr::Prng rng(derive_seed(seed_, 0x3a7a, index));
    const double pick = rng.uniform_real();
    const auto w = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_.warm.size()) - 1));
    Request r;
    if (pick < 0.70) {
      const int size = pick < 0.05 ? 0 : pick < 0.65 ? 1 : 2;
      r.kind = Kind::kSolveGen;
      r.graph = in_.warm[static_cast<std::size_t>(size * kSeedsPerSize) + w % kSeedsPerSize];
      r.warm = true;
      r.payload = with_trace("\"verb\":\"SOLVE\",\"generator\":" +
                                 sprand_spec(r.graph.n, r.graph.seed) + "}",
                             'g', index);
    } else if (pick < 0.90) {
      r.kind = Kind::kPing;
      r.payload = with_trace("\"verb\":\"PING\"}", 'p', index);
    } else {
      r.kind = Kind::kSolveFp;
      r.graph = in_.warm[w];
      r.warm = true;
      r.payload = with_trace("\"verb\":\"SOLVE\",\"fingerprint\":\"" + in_.warm_fp[w] + "\"}",
                             'f', index);
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  const Inputs& in_;
};

/// fleet_mixed: 40% SOLVE by fingerprint (dataset or LOADed pool), 30%
/// cold generator SOLVE (half circuit, half sprand n=2048) with salted,
/// never-repeated seeds, 10% LOAD of inline DIMACS, 10% PING, 10% HEALTH.
class FleetMix final : public Mix {
 public:
  static constexpr std::int64_t kColdN = 2048;

  FleetMix(std::uint64_t seed, const Inputs& in) : seed_(seed), in_(in) {}
  [[nodiscard]] Request at(std::uint64_t index) const override {
    mcr::Prng rng(derive_seed(seed_, 0xf1ee, index));
    const double pick = rng.uniform_real();
    const auto pool_size = static_cast<std::int64_t>(in_.dimacs.size());
    Request r;
    if (pick < 0.40) {
      r.kind = Kind::kSolveFp;
      r.warm = true;
      const std::int64_t k = rng.uniform_int(0, pool_size);  // pool_size = the dataset
      const std::string& fp =
          k == pool_size ? in_.pack_fp : in_.pool_fp[static_cast<std::size_t>(k)];
      r.graph = k == pool_size ? GraphKey{'p', 0, 0, -1} : GraphKey{'d', 0, 0, static_cast<int>(k)};
      r.payload = with_trace("\"verb\":\"SOLVE\",\"fingerprint\":\"" + fp + "\"}", 'f', index);
    } else if (pick < 0.70) {
      r.kind = Kind::kSolveGen;
      r.cold = true;
      // The cold seed is salted by the run seed and unique per request.
      const std::uint64_t s = derive_seed(seed_, 0xc01d, index);
      const bool circuit = rng.uniform_real() < 0.5;
      r.graph = GraphKey{circuit ? 'c' : 's', kColdN, s, -1};
      r.payload = with_trace("\"verb\":\"SOLVE\",\"generator\":" +
                                 (circuit ? circuit_spec(kColdN, s) : sprand_spec(kColdN, s)) +
                                 "}",
                             'c', index);
    } else if (pick < 0.80) {
      r.kind = Kind::kLoad;
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, pool_size - 1));
      r.graph = GraphKey{'d', 0, 0, static_cast<int>(k)};
      r.payload = with_trace("\"verb\":\"LOAD\",\"dimacs\":\"" +
                                 mcr::svc::json_escape(in_.dimacs[k]) + "\"}",
                             'l', index);
    } else if (pick < 0.90) {
      r.kind = Kind::kPing;
      r.payload = with_trace("\"verb\":\"PING\"}", 'p', index);
    } else {
      r.kind = Kind::kHealth;
      r.payload = with_trace("\"verb\":\"HEALTH\"}", 'h', index);
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  const Inputs& in_;
};

// --- Responses --------------------------------------------------------------

/// The fields of a response the benchmark checks, scanned from the raw
/// frame after the clock has stopped.
struct Record {
  std::uint64_t index = 0;
  Kind kind = Kind::kPing;
  bool ok = false;
  bool cached = false;
  bool has_cached = false;
  bool has_value = false;
  std::int64_t num = 0;
  std::int64_t den = 0;
  double solve_ms = -1.0;  // result.milliseconds
  double latency_ms = 0.0;  // from the intended send time (open loop) or send (closed)
  double rtt_ms = 0.0;      // send to response
  double lag_ms = 0.0;      // generator lateness: send minus max(intended, connection free)
  double wait_ms = 0.0;     // intended send to connection free (all connections busy)
  std::string fp;
  std::string code;
};

std::string string_field(const std::string& raw, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const auto p = raw.find(pat);
  if (p == std::string::npos) return {};
  const auto b = p + pat.size();
  return raw.substr(b, raw.find('"', b) - b);
}

bool number_field(const std::string& raw, const std::string& key, double& out) {
  const std::string pat = "\"" + key + "\":";
  const auto p = raw.find(pat);
  if (p == std::string::npos) return false;
  const char* b = raw.data() + p + pat.size();
  const auto [end, ec] = std::from_chars(b, raw.data() + raw.size(), out);
  return ec == std::errc();
}

void scan_response(const std::string& raw, Record& rec) {
  rec.ok = raw.find("\"status\":\"ok\"") != std::string::npos;
  if (!rec.ok) {
    rec.code = string_field(raw, "code");
    if (rec.code.empty()) rec.code = "UNPARSEABLE";
    return;
  }
  if (raw.find("\"cached\":") != std::string::npos) {
    rec.has_cached = true;
    rec.cached = raw.find("\"cached\":true") != std::string::npos;
  }
  rec.fp = string_field(raw, "fingerprint");
  double num = 0.0;
  double den = 0.0;
  if (number_field(raw, "value_num", num) && number_field(raw, "value_den", den)) {
    rec.has_value = true;
    rec.num = static_cast<std::int64_t>(num);
    rec.den = static_cast<std::int64_t>(den);
  }
  double ms = 0.0;
  if (number_field(raw, "milliseconds", ms)) rec.solve_ms = ms;
}

// --- Daemons ------------------------------------------------------------------

struct Topology {
  int workers = 1;
  bool router = false;
  std::string pack_path;  // attached by every worker when non-empty
};

/// The daemons of one set-up: workers, optionally a router in front.
class Deployment {
 public:
  Deployment(const RunConfig& cfg, const Topology& topo, bool log_json, int generation) {
    const std::string base = cfg.run_dir + "/g" + std::to_string(generation);
    for (int w = 0; w < topo.workers; ++w) {
      const std::string sock = base + "w" + std::to_string(w) + ".sock";
      std::vector<std::string> argv = {cfg.bin_dir + "/mcr_serve", "--socket", sock,
                                       "--threads", "2", "--flight-dump", "none"};
      if (!topo.pack_path.empty()) {
        argv.insert(argv.end(), {"--dataset", topo.pack_path});
      }
      if (log_json) {
        logs_.push_back(base + "w" + std::to_string(w) + ".jsonl");
        argv.insert(argv.end(), {"--log-json", logs_.back()});
      }
      worker_sockets_.push_back(sock);
      spawned_.push_back(Clock::now());
      daemons_.push_back(std::make_unique<Daemon>(argv, base + "w" + std::to_string(w) + ".log"));
    }
    for (const std::string& s : worker_sockets_) wait_ready(s);
    if (topo.router) {
      endpoint_ = base + "r.sock";
      std::vector<std::string> argv = {cfg.bin_dir + "/mcr_router", "--socket", endpoint_,
                                       "--replicas", "2"};
      for (const std::string& s : worker_sockets_) argv.insert(argv.end(), {"--worker", "unix:" + s});
      daemons_.push_back(std::make_unique<Daemon>(argv, base + "r.log"));
      wait_ready(endpoint_);
    } else {
      endpoint_ = worker_sockets_.front();
    }
  }

  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] const std::vector<std::string>& worker_sockets() const { return worker_sockets_; }
  [[nodiscard]] const std::vector<std::string>& request_logs() const { return logs_; }
  [[nodiscard]] Clock::time_point spawned(std::size_t worker) const { return spawned_[worker]; }

  [[nodiscard]] double peak_rss_mb() const {
    double total = 0.0;
    for (const auto& d : daemons_) total += d->peak_rss_mb();
    return total;
  }
  [[nodiscard]] double cpu_seconds() const {
    double total = 0.0;
    for (const auto& d : daemons_) total += d->cpu_seconds();
    return total;
  }

 private:
  std::vector<std::string> worker_sockets_;
  std::vector<std::string> logs_;
  std::vector<Clock::time_point> spawned_;
  std::string endpoint_;
  std::vector<std::unique_ptr<Daemon>> daemons_;  // each stops and is reaped on destruction
};

/// Counters and histogram sums from a STATS response.
std::map<std::string, double> stats_counters(Client& c) {
  const mcr::json::Value s = c.stats();
  std::map<std::string, double> out;
  const mcr::json::Value& m = s.at("metrics");
  for (const auto& [name, v] : m.at("counters").as_object()) out[name] = v.as_double();
  for (const auto& [name, h] : m.at("histograms").as_object()) {
    out[name + ".count"] = h.at("count").as_double();
    out[name + ".sum"] = h.at("sum").as_double();
  }
  if (s.has("build")) {
    const mcr::json::Value& b = s.at("build");
    out["build_release"] = build_problem(b.string_or("build_type", ""), b.string_or("flags", ""))
                                   .empty()
                               ? 1.0
                               : 0.0;
  }
  return out;
}

/// Sum over every counter whose name starts with `prefix`, after minus before.
double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& prefix) {
  double d = 0.0;
  for (const auto& [name, v] : after) {
    if (name.rfind(prefix, 0) != 0) continue;
    const auto it = before.find(name);
    d += v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

// --- Load generation --------------------------------------------------------

struct PhaseResult {
  std::vector<Record> records;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // load-process CPU seconds over the phase
};

/// One request on `client`. `intended` is the latency epoch: the
/// scheduled send time in the open loop, the send time in the closed
/// loop. `ready` is when the connection became free to send; the
/// generator's own lateness is the send time minus the later of the two.
Record issue(Client& client, const Request& req, std::uint64_t index,
             Clock::time_point intended, Clock::time_point ready, Tracer& tracer) {
  static constexpr const char* kNames[] = {"PING", "HEALTH", "SOLVE generator",
                                           "SOLVE fingerprint", "LOAD"};
  Record rec;
  rec.index = index;
  rec.kind = req.kind;
  const Clock::time_point sent = Clock::now();
  std::string raw;
  try {
    raw = client.request_raw(req.payload);
  } catch (const std::exception&) {
    raw.clear();
    try {
      client.reconnect();
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const Clock::time_point done = Clock::now();
  rec.latency_ms = ms_since(intended, done);
  rec.rtt_ms = ms_since(sent, done);
  rec.lag_ms = ms_since(std::max(intended, ready), sent);
  rec.wait_ms = std::max(0.0, ms_since(intended, ready));
  tracer.complete(kNames[static_cast<int>(req.kind)], "svc.client", sent, rec.rtt_ms);
  if (raw.empty()) {
    rec.code = "TRANSPORT";
  } else {
    scan_response(raw, rec);
  }
  return rec;
}

/// Open loop: Poisson arrivals at `rps` for `seconds`, spread over
/// kLoadThreads connections; each request is timed from its intended
/// send time, so a stall also delays every request queued behind it.
PhaseResult open_loop(const std::string& endpoint, const Mix& mix, double rps, double seconds,
                      std::uint64_t seed, Tracer& tracer) {
  std::vector<double> arrivals;
  mcr::Prng rng(derive_seed(seed, 0x0e9e));
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform_real()) / rps;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  std::vector<Request> requests;
  requests.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) requests.push_back(mix.at(i));

  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Record>> per_thread(kLoadThreads);
  std::vector<Client> clients;
  for (int t = 0; t < kLoadThreads; ++t) clients.push_back(Client::connect_unix(endpoint));
  const double cpu0 = self_cpu_seconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kLoadThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i; (i = next.fetch_add(1)) < arrivals.size();) {
          const Clock::time_point ready = Clock::now();
          const Clock::time_point intended =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(arrivals[i]));
          std::this_thread::sleep_until(intended);
          per_thread[static_cast<std::size_t>(t)].push_back(issue(
              clients[static_cast<std::size_t>(t)], requests[i], i, intended, ready, tracer));
        }
      });
    }
  }
  PhaseResult out;
  out.wall_s = ms_since(start) / 1000.0;
  out.cpu_s = self_cpu_seconds() - cpu0;
  for (auto& v : per_thread) out.records.insert(out.records.end(), v.begin(), v.end());
  return out;
}

/// Closed loop: kLoadThreads connections each send their next request
/// as soon as the previous one is answered, for `seconds`.
PhaseResult closed_loop(const std::string& endpoint, const Mix& mix, double seconds,
                        std::uint64_t first_index, Tracer& tracer) {
  std::atomic<std::uint64_t> next{first_index};
  std::vector<std::vector<Record>> per_thread(kLoadThreads);
  std::vector<Client> clients;
  for (int t = 0; t < kLoadThreads; ++t) clients.push_back(Client::connect_unix(endpoint));
  const double cpu0 = self_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kLoadThreads; ++t) {
      threads.emplace_back([&, t] {
        while (Clock::now() < deadline) {
          const std::uint64_t i = next.fetch_add(1);
          const Request req = mix.at(i);
          const Clock::time_point now = Clock::now();
          per_thread[static_cast<std::size_t>(t)].push_back(
              issue(clients[static_cast<std::size_t>(t)], req, i, now, now, tracer));
        }
      });
    }
  }
  PhaseResult out;
  out.wall_s = ms_since(start) / 1000.0;
  out.cpu_s = self_cpu_seconds() - cpu0;
  for (auto& v : per_thread) out.records.insert(out.records.end(), v.begin(), v.end());
  return out;
}

// --- References and checking ------------------------------------------------

struct Reference {
  std::string fp;
  mcr::Rational value;
  bool has_cycle = false;
  bool certified = false;
};

mcr::Graph build_graph(const GraphKey& k, const Inputs& in) {
  switch (k.family) {
    case 's': return make_sprand(k.n, k.seed);
    case 'c': return make_circuit(k.n, k.seed);
    case 'd': {
      std::istringstream is(in.dimacs[static_cast<std::size_t>(k.pool)]);
      return mcr::read_dimacs(is);
    }
    default: {
      const auto pack = mcr::store::PackReader::open(in.pack_path);
      // Copy out of the mapping so the reference outlives the reader.
      std::vector<mcr::ArcSpec> arcs;
      const mcr::Graph& g = *pack.graph();
      for (mcr::ArcId a = 0; a < g.num_arcs(); ++a) {
        arcs.push_back(mcr::ArcSpec{g.src(a), g.dst(a), g.weight(a), g.transit(a)});
      }
      return mcr::Graph(g.num_nodes(), arcs);
    }
  }
}

/// Reference fingerprint and certified Howard solve for every distinct
/// graph, computed on kLoadThreads threads.
std::map<GraphKey, Reference> references(const std::vector<GraphKey>& keys, const Inputs& in) {
  std::map<GraphKey, Reference> refs;
  for (const GraphKey& k : keys) refs[k];
  std::vector<std::pair<const GraphKey, Reference>*> todo;
  for (auto& kv : refs) todo.push_back(&kv);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kLoadThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
          try {
            const mcr::Graph g = build_graph(todo[i]->first, in);
            Reference& r = todo[i]->second;
            r.fp = mcr::fingerprint_hex(g);
            const mcr::CycleResult res = mcr::minimum_cycle_mean(g, "howard");
            r.has_cycle = res.has_cycle;
            r.value = res.value;
            r.certified = mcr::verify_result(g, res, mcr::ProblemKind::kCycleMean).ok;
          } catch (const std::exception& e) {
            std::lock_guard lock(error_mutex);
            error = e.what();
          }
        }
      });
    }
  }
  if (!error.empty()) throw std::runtime_error("reference solve failed: " + error);
  return refs;
}

/// Tallies every record: transport/service errors fail; a SOLVE whose
/// value or fingerprint differs from the reference, or a LOAD whose
/// fingerprint differs, is a wrong answer. Counts cache-state surprises
/// into `facts`.
void check_records(const std::vector<const PhaseResult*>& phases, const Mix& mix,
                   const Inputs& in, Report& report, Tracer& tracer, ServiceRunFacts& facts) {
  const Tracer::Scope span(tracer, "check answers", "check");
  std::vector<GraphKey> keys;
  std::vector<std::pair<const Record*, Request>> work;
  for (const PhaseResult* p : phases) {
    for (const Record& rec : p->records) {
      Request req = mix.at(rec.index);
      if (req.kind == Kind::kSolveGen || req.kind == Kind::kSolveFp || req.kind == Kind::kLoad) {
        keys.push_back(req.graph);
      }
      work.emplace_back(&rec, std::move(req));
    }
  }
  const auto refs = references(keys, in);
  std::map<std::string, std::uint64_t> errors;
  for (const auto& [rec, req] : work) {
    if (!rec->ok) {
      report.tally.fail();
      ++errors[rec->code];
      continue;
    }
    if (req.cold && rec->has_cached && rec->cached) ++facts.cold_cached;
    if (req.warm && rec->has_cached && !rec->cached) ++facts.warm_missed;
    bool right = true;
    if (req.kind == Kind::kSolveGen || req.kind == Kind::kSolveFp) {
      const Reference& ref = refs.at(req.graph);
      right = ref.certified && rec->has_value == ref.has_cycle && rec->fp == ref.fp &&
              (!ref.has_cycle || mcr::Rational(rec->num, rec->den) == ref.value);
    } else if (req.kind == Kind::kLoad) {
      right = rec->fp == refs.at(req.graph).fp;
    }
    if (right) {
      report.tally.ok();
    } else {
      report.tally.wrong_answer();
    }
  }
  std::string err = "{";
  for (const auto& [code, n] : errors) {
    err += (err.size() > 1 ? ",\"" : "\"") + code + "\":" + std::to_string(n);
  }
  report.note("errors", err + "}");
}

// --- Per-layer helpers --------------------------------------------------------

struct LogLine {
  std::string trace_id;
  double total_ms = 0.0;
  double queue_ms = -1.0;
  double ts_ms = 0.0;
  std::string verb;
};

std::vector<LogLine> read_request_log(const std::string& path) {
  std::vector<LogLine> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const mcr::json::Value v = mcr::json::parse(line);
    LogLine l;
    l.trace_id = v.string_or("trace_id", "");
    l.verb = v.string_or("verb", "");
    l.total_ms = v.number_or("total_ms", 0.0);
    l.queue_ms = v.number_or("queue_ms", -1.0);
    l.ts_ms = v.number_or("ts_ms", 0.0);
    out.push_back(std::move(l));
  }
  return out;
}

template <typename Fn>
double median_ms(int repeats, Fn&& fn) {
  std::vector<double> t;
  for (int k = 0; k < repeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return percentile(t, 0.5);
}

/// Per-request-kind sample count, p50 and p99 of an open-loop phase.
std::string by_kind_json(const PhaseResult& p) {
  static constexpr const char* kNames[] = {"ping", "health", "solve_gen", "solve_fp", "load"};
  std::map<std::string, std::vector<double>> by;
  for (const Record& r : p.records) {
    by[kNames[static_cast<int>(r.kind)]].push_back(r.ok ? r.latency_ms : kFailedSample);
  }
  std::string out = "{";
  for (const auto& [name, v] : by) {
    out += (out.size() > 1 ? ",\"" : "\"") + name + "\":{\"n\":" + std::to_string(v.size()) +
           ",\"p50\":" + json_number(percentile(v, 0.5)) +
           ",\"p99\":" + json_number(percentile(v, 0.99)) + "}";
  }
  return out + "}";
}

/// Checks every answer of a run and the run's own validity, marking the
/// report invalid on any problem.
ServiceRunFacts check_run(const PhaseResult& open, const PhaseResult& closed, const Mix& mix,
                          const Inputs& in, Report& report, Tracer& tracer) {
  ServiceRunFacts facts;
  check_records({&open, &closed}, mix, in, report, tracer, facts);
  std::vector<double> lag;
  std::vector<double> wait;
  for (const Record& r : open.records) {
    lag.push_back(std::max(0.0, r.lag_ms));
    wait.push_back(r.wait_ms);
  }
  facts.send_lag_ms_p99 = lag.empty() ? 0.0 : percentile(lag, 0.99);
  facts.cpu_util = open.cpu_s / (open.wall_s * kLoadThreads);
  facts.open_loop_samples = open.records.size();
  // Time requests waited for a free connection counts in their latency;
  // recorded so a reader can tell queueing in front of the service apart.
  if (!wait.empty()) report.note("connection_wait_ms_p99", json_number(percentile(wait, 0.99)));
  report.note("send_lag_ms_p99", json_number(facts.send_lag_ms_p99));
  report.note("load_cpu_util", json_number(facts.cpu_util));
  report.note("open_loop_by_kind", by_kind_json(open));
  for (const std::string& p : service_run_problems(facts)) report.invalid(p);
  return facts;
}

std::vector<double> latencies(const PhaseResult& p) {
  std::vector<double> v;
  for (const Record& r : p.records) v.push_back(r.ok ? r.latency_ms : kFailedSample);
  return v;
}

// --- The shared run skeleton ------------------------------------------------

struct ServiceSpec {
  Topology topo;
  double open_rps;
  std::function<void(Client&, Report&)> prime;
};

struct SetUp {
  std::unique_ptr<Deployment> deployment;
  double seconds = 0.0;
};

/// Starts the daemons and primes them kSetupRepeats times (each set-up
/// fresh), keeping the last; returns it with the median set-up time.
SetUp set_up(const RunConfig& cfg, const ServiceSpec& spec, bool log_json, int repeats,
             int generation0, Report& report, Tracer& tracer) {
  std::vector<double> secs;
  std::string breakdown = "[";
  SetUp out;
  for (int k = 0; k < repeats; ++k) {
    out.deployment.reset();
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope span(tracer, "start daemons", "svc");
      out.deployment = std::make_unique<Deployment>(cfg, spec.topo, log_json, generation0 + k);
    }
    const Clock::time_point t1 = Clock::now();
    {
      const Tracer::Scope span(tracer, "prime caches", "svc");
      Client c = Client::connect_unix(out.deployment->endpoint());
      spec.prime(c, report);
    }
    secs.push_back(ms_since(t0) / 1000.0);
    breakdown += (k ? ",{\"start_ms\":" : "{\"start_ms\":") + json_number(ms_since(t0, t1)) +
                 ",\"prime_ms\":" + json_number(ms_since(t1)) + "}";
  }
  report.note("setup_breakdown", breakdown + "]");
  out.seconds = percentile(secs, 0.5);
  return out;
}

void check_daemon_builds(const Deployment& d, Report& report) {
  for (const std::string& s : d.worker_sockets()) {
    Client c = Client::connect_unix(s);
    if (stats_counters(c)["build_release"] != 1.0) {
      report.invalid("daemon on " + s + " is not an optimized, uninstrumented build");
    }
  }
}

/// STATS counters of every worker and of the client-facing endpoint.
struct Snapshot {
  std::vector<std::map<std::string, double>> workers;
  std::map<std::string, double> endpoint;
};

Snapshot snapshot(const Deployment& d) {
  Snapshot s;
  for (const std::string& sock : d.worker_sockets()) {
    Client c = Client::connect_unix(sock);
    s.workers.push_back(stats_counters(c));
  }
  Client c = Client::connect_unix(d.endpoint());
  s.endpoint = stats_counters(c);
  return s;
}

/// Sum of a counter's change over every worker.
double worker_delta(const Snapshot& before, const Snapshot& after, const std::string& prefix) {
  double d = 0.0;
  for (std::size_t w = 0; w < after.workers.size(); ++w) {
    d += delta(before.workers[w], after.workers[w], prefix);
  }
  return d;
}

void report_cache_hit_ratio(const Snapshot& before, const Snapshot& after, Report& r) {
  const double hits = worker_delta(before, after, "mcr_cache_hits_total");
  const double misses = worker_delta(before, after, "mcr_cache_misses_total");
  if (hits + misses > 0.0) {
    r.metric("svc.cache_hit_ratio", hits / (hits + misses), "ratio");
  } else {
    r.absent("svc.cache_hit_ratio", "no cache lookups during the traced phases");
  }
}

/// Imports each worker's request log as server-side spans (pid 3 + worker),
/// placed by the log's server-relative completion time.
std::vector<std::vector<LogLine>> import_logs(const Deployment& d, Tracer& t) {
  std::vector<std::vector<LogLine>> logs;
  for (std::size_t w = 0; w < d.request_logs().size(); ++w) {
    logs.push_back(read_request_log(d.request_logs()[w]));
    for (const LogLine& l : logs.back()) {
      t.complete(l.verb + " " + l.trace_id, "svc.server",
                 d.spawned(w) + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(l.ts_ms - l.total_ms)),
                 l.total_ms, 3 + static_cast<int>(w), 0);
    }
  }
  return logs;
}

using Layers = std::function<void(const Deployment&, const Snapshot& before, Report&, Tracer&,
                                  const PhaseResult& open)>;

void run_service(const RunConfig& cfg, const ServiceSpec& spec, const Mix& mix,
                 const Inputs& in, Report& report, Tracer& tracer, const Layers& layers) {
  // Traced runs spend 0.25 of the time on an untraced baseline (p50 only).
  // Untraced runs give the closed-loop phase the larger share: its
  // ops_per_cpu_s is gated, open-loop latency is not (README.md). The
  // open loop still draws over 1000 samples at either workload's rate.
  const double open_s = cfg.seconds * (cfg.trace ? 0.45 : 0.3);
  const double closed_s = cfg.seconds * (cfg.trace ? 0.1 : 0.6);
  if (!cfg.trace) {
    SetUp su = set_up(cfg, spec, false, kSetupRepeats, 0, report, tracer);
    check_daemon_builds(*su.deployment, report);
    // Gated: the primed deployment's footprint. What the load adds on top
    // follows which threads happened to allocate at once (the workers'
    // VmHWM moves by 15% between runs of one seed), so it is only noted.
    const double rss = su.deployment->peak_rss_mb();
    const PhaseResult open = open_loop(su.deployment->endpoint(), mix, spec.open_rps, open_s,
                                       cfg.seed, tracer);
    // The closed loop runs in one-second segments. Before each one, with
    // the daemons idle, the host-speed probe runs on this thread, and the
    // daemons' CPU time in the segment is scaled by kProbeReferenceMs /
    // that probe time: the host's speed drifts over seconds (README.md).
    HostSpeedProbe probe;
    std::vector<double> probe_ms;
    PhaseResult closed;
    double daemon_cpu_s = 0.0;
    double adjusted_cpu_s = 0.0;
    std::uint64_t next_index = std::uint64_t{1} << 32;
    const int segments = std::max(1, static_cast<int>(std::lround(closed_s)));
    for (int k = 0; k < segments; ++k) {
      probe_ms.push_back(probe.cpu_ms());
      const double cpu0 = su.deployment->cpu_seconds();
      PhaseResult segment =
          closed_loop(su.deployment->endpoint(), mix, closed_s / segments, next_index, tracer);
      const double cpu_s = su.deployment->cpu_seconds() - cpu0;
      daemon_cpu_s += cpu_s;
      adjusted_cpu_s += cpu_s * kProbeReferenceMs / probe_ms.back();
      next_index += segment.records.size();
      closed.wall_s += segment.wall_s;
      closed.cpu_s += segment.cpu_s;
      closed.records.insert(closed.records.end(), segment.records.begin(),
                            segment.records.end());
    }
    report.note("peak_rss_mb_after_load", json_number(su.deployment->peak_rss_mb()));
    su.deployment.reset();

    check_run(open, closed, mix, in, report, tracer);
    const std::vector<double> lat = latencies(open);
    report.metric("setup_s", su.seconds, "s", kSetupRepeats);
    report.note("latency_ms", "{\"p50\":" + json_number(percentile(lat, 0.50)) +
                                  ",\"p99\":" + json_number(percentile(lat, 0.99)) +
                                  ",\"samples\":" + std::to_string(lat.size()) + "}");
    std::uint64_t ok = 0;
    for (const Record& r : closed.records) ok += r.ok ? 1 : 0;
    report.metric("ops_per_cpu_s", static_cast<double>(ok) / adjusted_cpu_s, "1/s",
                  closed.records.size());
    report.note("unadjusted_ops_per_cpu_s", json_number(static_cast<double>(ok) / daemon_cpu_s));
    report.note("host_speed_probe", "{\"reference_ms\":" + json_number(kProbeReferenceMs) +
                                        ",\"p50_ms\":" + json_number(percentile(probe_ms, 0.5)) +
                                        ",\"samples\":" + std::to_string(probe_ms.size()) + "}");
    report.note("capacity_rps", json_number(static_cast<double>(ok) / closed.wall_s));
    report.note("daemon_cpu_util", json_number(daemon_cpu_s / closed.wall_s));
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("ok_rate", report.tally.ok_rate(), "ratio");
    report.note("open_loop", "{\"rps\":" + json_number(spec.open_rps) +
                                 ",\"seconds\":" + json_number(open_s) + ",\"connections\":" +
                                 std::to_string(kLoadThreads) + "}");
    report.note("closed_loop", "{\"seconds\":" + json_number(closed_s) +
                                   ",\"connections\":" + std::to_string(kLoadThreads) + "}");
    return;
  }

  // Traced run: an untraced open-loop phase as the overhead baseline, then
  // the same phase traced (request logs on, spans recorded) plus a short
  // closed-loop phase, bracketed by STATS snapshots, feeding the
  // per-layer table.
  double untraced_p50 = 0.0;
  {
    Tracer off(false);
    SetUp su = set_up(cfg, spec, false, 1, 0, report, off);
    const PhaseResult open = open_loop(su.deployment->endpoint(), mix, spec.open_rps,
                                       cfg.seconds * 0.25, cfg.seed, off);
    untraced_p50 = percentile(latencies(open), 0.5);
  }
  SetUp su = set_up(cfg, spec, true, 1, 10, report, tracer);
  const Snapshot before = snapshot(*su.deployment);
  const PhaseResult open =
      open_loop(su.deployment->endpoint(), mix, spec.open_rps, open_s, cfg.seed, tracer);
  const PhaseResult closed =
      closed_loop(su.deployment->endpoint(), mix, closed_s, std::uint64_t{1} << 32, tracer);
  layers(*su.deployment, before, report, tracer, open);
  su.deployment.reset();
  const ServiceRunFacts facts = check_run(open, closed, mix, in, report, tracer);
  report.metric("harness.send_lag_ms_p99", facts.send_lag_ms_p99, "ms", open.records.size());
  report.metric("harness.cpu_util", facts.cpu_util, "ratio");
  report.metric("harness.cold_cached", static_cast<double>(facts.cold_cached), "count");
  report.metric("harness.warm_missed", static_cast<double>(facts.warm_missed), "count");
  const std::vector<double> lat = latencies(open);
  const double traced_p50 = percentile(lat, 0.5);
  report.metric("latency_ms_p50", traced_p50, "ms", lat.size());
  report.metric("latency_ms_p99", percentile(lat, 0.99), "ms", lat.size());
  report.metric("obs.trace_overhead_pct", (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
                "%");
}

}  // namespace

void run_serve_warm(const RunConfig& cfg, Report& report, Tracer& tracer) {
  const auto& kSizes = WarmMix::kSizes;
  constexpr int kSeedsPerSize = WarmMix::kSeedsPerSize;
  Inputs in;
  {
    const Tracer::Scope span(tracer, "generate inputs", "gen");
    for (const std::int64_t n : kSizes) {
      for (int k = 0; k < kSeedsPerSize; ++k) {
        const GraphKey key{'s', n,
                           derive_seed(kSuiteSeed, 0x3a12, static_cast<std::uint64_t>(n * 8 + k)),
                           -1};
        in.warm.push_back(key);
        in.warm_fp.push_back(mcr::fingerprint_hex(make_sprand(n, key.seed)));
      }
    }
  }
  const WarmMix mix(cfg.seed, in);
  const ServiceSpec spec{Topology{1, false, ""}, 300.0, [&](Client& c, Report& r) {
                           for (const GraphKey& k : in.warm) {
                             const std::string raw =
                                 c.request_raw("{\"verb\":\"SOLVE\",\"generator\":" +
                                               sprand_spec(k.n, k.seed) + "}");
                             if (raw.find("\"status\":\"ok\"") == std::string::npos) {
                               r.invalid("priming failed: " + raw.substr(0, 200));
                             }
                           }
                         }};
  const auto layers = [&](const Deployment& d, const Snapshot& before, Report& r, Tracer& t,
                          const PhaseResult& open) {
    report_cache_hit_ratio(before, snapshot(d), r);
    // Server-side time per request kind from the request log, joined by trace id.
    std::map<std::string, double> server_ms;
    std::map<std::string, std::vector<double>> by_kind;
    const std::vector<std::vector<LogLine>> logs = import_logs(d, t);
    for (const LogLine& l : logs.front()) {
      server_ms[l.trace_id] = l.total_ms;
      const char tag = l.trace_id.size() > 1 && l.trace_id[1] == '-' ? l.trace_id[0] : '?';
      const char* kind = tag == 'p'   ? "ping"
                         : tag == 'g' ? "solve_gen"
                         : tag == 'f' ? "solve_fp"
                                      : nullptr;
      if (kind != nullptr) by_kind[kind].push_back(l.total_ms);
    }
    for (const char* kind : {"ping", "solve_gen", "solve_fp"}) {
      const std::vector<double>& v = by_kind[kind];
      if (v.empty()) {
        r.absent(std::string("svc.server_ms_p50.") + kind, "no such requests were logged");
      } else {
        r.metric(std::string("svc.server_ms_p50.") + kind, percentile(v, 0.5), "ms", v.size());
      }
    }
    std::vector<double> transport_us;
    std::map<std::int64_t, std::vector<double>> hit_ms;  // client RTT of generator hits by n
    for (const Record& rec : open.records) {
      if (!rec.ok) continue;
      if (rec.kind == Kind::kPing) {
        const auto it = server_ms.find(trace_id('p', rec.index));
        if (it != server_ms.end()) transport_us.push_back((rec.rtt_ms - it->second) * 1000.0);
      } else if (rec.kind == Kind::kSolveGen) {
        hit_ms[mix.at(rec.index).graph.n].push_back(rec.rtt_ms);
      }
    }
    if (transport_us.empty()) {
      r.absent("svc.transport_us.ping", "no PING joined the request log");
    } else {
      r.metric("svc.transport_us.ping", percentile(transport_us, 0.5), "us", transport_us.size());
    }
    // The O(m) work a warm hit still repeats, in-process and client-side.
    for (std::size_t s = 0; s < std::size(kSizes); ++s) {
      const std::int64_t n = kSizes[s];
      const GraphKey& k = in.warm[s * kSeedsPerSize];
      const std::string suffix = ".n" + std::to_string(n);
      if (!hit_ms[n].empty()) {
        r.metric("svc.hit_ms_p50" + suffix, percentile(hit_ms[n], 0.5), "ms", hit_ms[n].size());
      }
      r.metric("gen.generate_ms" + suffix, median_ms(5, [&] {
                 const Tracer::Scope span(t, "gen::sprand", "gen");
                 (void)make_sprand(n, k.seed);
               }), "ms", 5);
      const mcr::Graph g = make_sprand(n, k.seed);
      mcr::GraphBuilder builder(g.num_nodes());
      for (mcr::ArcId a = 0; a < g.num_arcs(); ++a) {
        builder.add_arc(g.src(a), g.dst(a), g.weight(a), g.transit(a));
      }
      r.metric("graph.build_ms" + suffix, median_ms(5, [&] {
                 const Tracer::Scope span(t, "GraphBuilder::build", "graph");
                 (void)builder.build();
               }), "ms", 5);
      r.metric("graph.fingerprint_ms" + suffix, median_ms(5, [&] {
                 const Tracer::Scope span(t, "fingerprint", "graph");
                 (void)mcr::fingerprint(g);
               }), "ms", 5);
    }
  };
  tracer.name_process(3, "mcr_serve (request log)");
  run_service(cfg, spec, mix, in, report, tracer, layers);
}

void run_fleet_mixed(const RunConfig& cfg, Report& report, Tracer& tracer) {
  constexpr int kPool = 8;
  constexpr std::int64_t kPoolN = 1024;
  constexpr std::int64_t kPackN = 8192;
  Inputs in;
  {
    const Tracer::Scope span(tracer, "generate inputs", "gen");
    for (int k = 0; k < kPool; ++k) {
      const mcr::Graph g =
          make_sprand(kPoolN, derive_seed(kSuiteSeed, 0xd1a5, static_cast<std::uint64_t>(k)));
      std::ostringstream os;
      mcr::write_dimacs(os, g);
      in.dimacs.push_back(os.str());
      in.pool_fp.push_back(mcr::fingerprint_hex(g));
    }
    in.pack_path = cfg.run_dir + "/fleet.mcrpack";
    const mcr::Graph pack_graph = make_sprand(kPackN, derive_seed(kSuiteSeed, 0x9ac));
    const Tracer::Scope write_span(tracer, "store::write_pack", "store");
    in.pack_fp = mcr::store::write_pack(in.pack_path, pack_graph).fingerprint;
  }
  report.note("pack_fingerprint", "\"" + in.pack_fp + "\"");
  const FleetMix mix(cfg.seed, in);
  const ServiceSpec spec{
      Topology{2, true, in.pack_path}, 150.0, [&](Client& c, Report& r) {
        std::vector<std::string> payloads;
        for (const std::string& d : in.dimacs) {
          payloads.push_back("{\"verb\":\"LOAD\",\"dimacs\":\"" + mcr::svc::json_escape(d) +
                             "\"}");
        }
        for (const std::string& fp : in.pool_fp) {
          payloads.push_back("{\"verb\":\"SOLVE\",\"fingerprint\":\"" + fp + "\"}");
        }
        payloads.push_back("{\"verb\":\"SOLVE\",\"fingerprint\":\"" + in.pack_fp + "\"}");
        for (const std::string& p : payloads) {
          const std::string raw = c.request_raw(p);
          if (raw.find("\"status\":\"ok\"") == std::string::npos) {
            r.invalid("priming failed: " + raw.substr(0, 200));
          }
        }
      }};
  const auto layers = [&](const Deployment& d, const Snapshot& before, Report& r, Tracer& t,
                          const PhaseResult& open) {
    const Snapshot after = snapshot(d);
    report_cache_hit_ratio(before, after, r);
    r.metric("svc.busy_rejects", worker_delta(before, after, "mcr_rejected_total"), "count");
    const double batches = worker_delta(before, after, "mcr_batch_size.count");
    if (batches > 0.0) {
      r.metric("svc.batch_occupancy", worker_delta(before, after, "mcr_batch_size.sum") / batches,
               "jobs");
    } else {
      r.absent("svc.batch_occupancy", "no solve batches ran during the traced phases");
    }
    r.metric("router.failovers", delta(before.endpoint, after.endpoint, "mcr_router_failovers_total"),
             "count");
    r.metric("router.breaker_opens",
             delta(before.endpoint, after.endpoint, "mcr_router_breaker_opens_total"), "count");
    std::vector<double> per_backend;
    for (const auto& [name, v] : after.endpoint) {
      if (name.rfind("mcr_router_backend_requests_total{", 0) == 0) {
        per_backend.push_back(v - (before.endpoint.count(name) ? before.endpoint.at(name) : 0.0));
      }
    }
    const auto [lo, hi] = std::minmax_element(per_backend.begin(), per_backend.end());
    if (per_backend.size() >= 2 && *lo > 0.0) {
      r.metric("router.replica_skew", *hi / *lo, "ratio");
    } else {
      r.absent("router.replica_skew", "a backend served no requests");
    }

    std::vector<double> queue_ms;
    for (const auto& log : import_logs(d, t)) {
      for (const LogLine& l : log) {
        if (l.queue_ms >= 0.0) queue_ms.push_back(l.queue_ms);
      }
    }
    if (queue_ms.empty()) {
      r.absent("svc.queue_ms_p50", "no queued solves were logged");
      r.absent("svc.queue_ms_p99", "no queued solves were logged");
    } else {
      r.metric("svc.queue_ms_p50", percentile(queue_ms, 0.5), "ms", queue_ms.size());
      r.metric("svc.queue_ms_p99", percentile(queue_ms, 0.99), "ms", queue_ms.size());
    }
    std::vector<double> solve_ms;
    for (const Record& rec : open.records) {
      if (rec.ok && rec.kind == Kind::kSolveGen && !rec.cached && rec.solve_ms >= 0.0) {
        solve_ms.push_back(rec.solve_ms);
      }
    }
    if (!solve_ms.empty()) {
      r.metric("svc.solve_ms_p50", percentile(solve_ms, 0.5), "ms", solve_ms.size());
    } else {
      r.absent("svc.solve_ms_p50", "no cold solve completed");
    }

    // Router hop: the same request routed and sent straight to a worker,
    // alternating, on an otherwise idle fleet.
    Client routed = Client::connect_unix(d.endpoint());
    Client direct = Client::connect_unix(d.worker_sockets().front());
    const std::string ping = "{\"verb\":\"PING\"}";
    const std::string solve = "{\"verb\":\"SOLVE\",\"fingerprint\":\"" + in.pack_fp + "\"}";
    (void)direct.request_raw(solve);  // warm the worker's own cache for this key
    std::map<std::string, std::vector<double>> rtt;
    for (int k = 0; k < 400; ++k) {
      for (const auto& [name, payload] : {std::pair{"ping", &ping}, std::pair{"solve_fp", &solve}}) {
        for (auto* c : {&routed, &direct}) {
          const Clock::time_point t0 = Clock::now();
          const std::string raw = c->request_raw(*payload);
          const double ms = ms_since(t0);
          if (raw.find("\"status\":\"ok\"") == std::string::npos) {
            r.tally.fail();
            continue;
          }
          r.tally.ok();
          rtt[std::string(name) + (c == &routed ? ".routed" : ".direct")].push_back(ms);
        }
      }
    }
    for (const char* name : {"ping", "solve_fp"}) {
      const std::string base = name;
      r.metric("router.hop_us." + base,
               (percentile(rtt[base + ".routed"], 0.5) - percentile(rtt[base + ".direct"], 0.5)) *
                   1000.0,
               "us", rtt[base + ".routed"].size());
    }

    r.metric("store.attach_ms", median_ms(5, [&] {
               const Tracer::Scope span(t, "PackReader::open", "store");
               (void)mcr::store::PackReader::open(in.pack_path);
             }), "ms", 5);
    const mcr::Graph giant = make_sprand(FleetMix::kColdN, derive_seed(cfg.seed, 0x5cc));
    const mcr::Graph circuit = make_circuit(FleetMix::kColdN, derive_seed(cfg.seed, 0x5cc));
    for (const auto& [name, g] : {std::pair{"giant", &giant}, std::pair{"circuit", &circuit}}) {
      r.metric(std::string("graph.scc_ms.") + name, median_ms(5, [&] {
                 const Tracer::Scope span(t, "strongly_connected_components", "graph");
                 (void)mcr::strongly_connected_components(*g);
               }), "ms", 5);
    }
  };
  tracer.name_process(3, "mcr_serve worker 0 (request log)");
  tracer.name_process(4, "mcr_serve worker 1 (request log)");
  run_service(cfg, spec, mix, in, report, tracer, layers);
}

}  // namespace perfbench
