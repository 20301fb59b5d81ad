// Tests for the solve service stack: graph fingerprinting, the shared
// result schema, wire framing, the LRU/single-flight result cache, the
// graph registry, driver cancellation, and a live in-process Server
// exercised over real Unix-domain / TCP sockets — including the
// ISSUE-level guarantees (8 concurrent identical requests → one solve;
// queue capacity K + j extra slow solves → j explicit BUSY rejections;
// deadlines; graceful drain) and a frame fuzzer for protocol
// robustness (runs under ASan and TSan in CI).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "graph/builder.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "support/prng.h"
#include "svc/cache.h"
#include "svc/client.h"
#include "svc/graph_registry.h"
#include "svc/protocol.h"
#include "store/format.h"
#include "store/pack_writer.h"
#include "svc/request_log.h"
#include "svc/result_json.h"
#include "svc/server.h"

namespace {

using namespace mcr;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Shared fixtures and helpers.

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mcr_svc_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

Graph make_ring(NodeId n, std::int64_t base_weight) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    b.add_arc(u, (u + 1) % n, base_weight + u);
  }
  return b.build();
}

std::string dimacs_text(const Graph& g) {
  std::ostringstream os;
  write_dimacs(os, g, "test_svc");
  return os.str();
}

// A deliberately slow mean solver: sleeps kNap per strongly connected
// component, then delegates to Howard. Registered under two names so
// tests can force two jobs into different dispatch groups.
constexpr auto kNap = 300ms;

class SleepySolver : public Solver {
 public:
  explicit SleepySolver(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }
  [[nodiscard]] CycleResult solve_scc(const Graph& g) const override {
    std::this_thread::sleep_for(kNap);
    return SolverRegistry::instance().create("howard")->solve_scc(g);
  }

 private:
  std::string name_;
};

void ensure_sleepy_solvers() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const char* name : {"test_sleepy", "test_sleepy2"}) {
      SolverInfo info;
      info.name = name;
      info.display = "Sleepy";
      info.source = "test fixture";
      info.year = 2026;
      info.bound = "O(sleep)";
      info.kind = ProblemKind::kCycleMean;
      SolverRegistry::instance().add(
          info, [name](const SolverConfig&) -> std::unique_ptr<Solver> {
            return std::make_unique<SleepySolver>(name);
          });
    }
  });
}

CycleResult solve_self_loop(std::int64_t weight) {
  GraphBuilder b(1);
  b.add_arc(0, 0, weight);
  const Graph g = b.build();
  return minimum_cycle_mean(g, *SolverRegistry::instance().create("howard"));
}

// ---------------------------------------------------------------------------
// Fingerprint.

TEST(Fingerprint, SameContentSameHash) {
  const Graph a = make_ring(16, 3);
  const Graph b = make_ring(16, 3);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(fingerprint_hex(a), fingerprint_hex(b));
  EXPECT_EQ(fingerprint_hex(a).size(), 32u);
}

TEST(Fingerprint, SensitiveToEveryArcField) {
  const Graph base = make_ring(8, 1);
  const Fingerprint fp = fingerprint(base);

  EXPECT_NE(fp, fingerprint(make_ring(8, 2)));  // weight
  EXPECT_NE(fp, fingerprint(make_ring(9, 1)));  // node count

  GraphBuilder b(8);  // same arcs, one transit changed
  for (NodeId u = 0; u < 8; ++u) {
    b.add_arc(u, (u + 1) % 8, 1 + u, u == 3 ? 2 : 1);
  }
  EXPECT_NE(fp, fingerprint(b.build()));

  GraphBuilder c(8);  // one extra arc
  for (NodeId u = 0; u < 8; ++u) c.add_arc(u, (u + 1) % 8, 1 + u);
  c.add_arc(0, 4, 100);
  EXPECT_NE(fp, fingerprint(c.build()));
}

TEST(Fingerprint, HexIsZeroPadded) {
  const Fingerprint fp{0x1, 0xab};
  EXPECT_EQ(fp.hex(), "000000000000000100000000000000ab");
}

// ---------------------------------------------------------------------------
// Shared result schema.

TEST(ResultJson, CyclicResultSchema) {
  const CycleResult r = solve_self_loop(7);
  const std::string text = svc::result_json(r, "howard", "min_mean", 1.5);
  EXPECT_EQ(text,
            "{\"algorithm\":\"howard\",\"objective\":\"min_mean\","
            "\"has_cycle\":true,\"value_num\":7,\"value_den\":1,\"value\":7,"
            "\"cycle_length\":1,\"cycle_arcs\":[0],\"milliseconds\":1.5}");
  const json::Value v = json::parse(text);  // parses as valid JSON
  EXPECT_EQ(v.at("value_num").as_double(), 7.0);
}

TEST(ResultJson, AcyclicResultOmitsValueFields) {
  const CycleResult r;  // has_cycle == false
  const std::string text = svc::result_json(r, "karp", "min_mean", 0.25);
  EXPECT_EQ(text,
            "{\"algorithm\":\"karp\",\"objective\":\"min_mean\","
            "\"has_cycle\":false,\"milliseconds\":0.25}");
  EXPECT_FALSE(json::parse(text).has("value_num"));
}

// ---------------------------------------------------------------------------
// Wire framing.

TEST(Protocol, FrameRoundTripThroughPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = R"({"verb":"PING"})";
  ASSERT_TRUE(svc::write_full(fds[1], svc::encode_frame(payload)));
  std::string out;
  EXPECT_EQ(svc::read_frame(fds[0], svc::kDefaultMaxFrameBytes, out),
            svc::ReadStatus::kOk);
  EXPECT_EQ(out, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, RejectsBadMagicOversizeAndTruncation) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string out;

  ASSERT_TRUE(svc::write_full(fds[1], std::string("XXXX\x01\x00\x00\x00z", 9)));
  // The whole 8-byte header is consumed before the magic check fires.
  EXPECT_EQ(svc::read_frame(fds[0], 1024, out), svc::ReadStatus::kBadMagic);
  char drain[1];
  ASSERT_EQ(::read(fds[0], drain, 1), 1);  // the stray payload byte

  ASSERT_TRUE(svc::write_full(fds[1], std::string("MCR1\xff\xff\xff\xff", 8)));
  EXPECT_EQ(svc::read_frame(fds[0], 1024, out), svc::ReadStatus::kTooLarge);

  ASSERT_TRUE(svc::write_full(fds[1], std::string("MC", 2)));
  ::close(fds[1]);
  EXPECT_EQ(svc::read_frame(fds[0], 1024, out), svc::ReadStatus::kTruncated);
  EXPECT_EQ(svc::read_frame(fds[0], 1024, out), svc::ReadStatus::kClosed);
  ::close(fds[0]);
}

// ---------------------------------------------------------------------------
// Result cache.

TEST(ResultCache, MissPublishHitAndLruEviction) {
  obs::MetricsRegistry metrics;
  svc::ResultCache cache(2, &metrics);
  const CycleResult r = solve_self_loop(5);

  const svc::CacheKey k1{"fp1", "min_mean", "howard"};
  auto o = cache.acquire(k1);
  EXPECT_EQ(o.role, svc::ResultCache::Role::kLead);
  cache.publish(k1, r, 2.0);

  o = cache.acquire(k1);
  ASSERT_EQ(o.role, svc::ResultCache::Role::kHit);
  EXPECT_EQ(o.result.value, r.value);
  EXPECT_EQ(o.solve_ms, 2.0);

  // Distinct objective and algorithm are distinct rows.
  EXPECT_EQ(cache.acquire({"fp1", "max_mean", "howard"}).role,
            svc::ResultCache::Role::kLead);
  cache.publish({"fp1", "max_mean", "howard"}, r, 1.0);
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1, insert a third row: the untouched row is evicted.
  (void)cache.acquire(k1);
  EXPECT_EQ(cache.acquire({"fp2", "min_mean", "howard"}).role,
            svc::ResultCache::Role::kLead);
  cache.publish({"fp2", "min_mean", "howard"}, r, 1.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.acquire(k1).role, svc::ResultCache::Role::kHit);
  EXPECT_EQ(metrics.counter("mcr_cache_evictions_total").value(), 1u);
  EXPECT_GE(metrics.counter("mcr_cache_hits_total").value(), 3u);
  EXPECT_EQ(metrics.gauge("mcr_cache_entries").value(), 2);
}

TEST(ResultCache, SingleFlightJoinerReceivesLeaderResult) {
  obs::MetricsRegistry metrics;
  svc::ResultCache cache(4, &metrics);
  const svc::CacheKey key{"fp", "min_mean", "howard"};
  const CycleResult r = solve_self_loop(9);

  auto lead = cache.acquire(key);
  ASSERT_EQ(lead.role, svc::ResultCache::Role::kLead);

  svc::ResultCache::Outcome joined;
  std::thread joiner([&] { joined = cache.acquire(key); });
  std::this_thread::sleep_for(100ms);  // joiner is (almost surely) waiting
  cache.publish(key, r, 3.0);
  joiner.join();

  EXPECT_NE(joined.role, svc::ResultCache::Role::kLead);
  EXPECT_TRUE(joined.error_code.empty());
  EXPECT_EQ(joined.result.value, r.value);
  EXPECT_EQ(joined.solve_ms, 3.0);
}

TEST(ResultCache, FailurePropagatesToJoinersAndCachesNothing) {
  svc::ResultCache cache(4);
  const svc::CacheKey key{"fp", "min_mean", "howard"};
  auto lead = cache.acquire(key);
  ASSERT_EQ(lead.role, svc::ResultCache::Role::kLead);

  svc::ResultCache::Outcome joined;
  std::thread joiner([&] { joined = cache.acquire(key); });
  std::this_thread::sleep_for(100ms);
  cache.fail(key, svc::kErrBusy, "queue full");
  joiner.join();

  if (joined.role == svc::ResultCache::Role::kJoined) {
    EXPECT_EQ(joined.error_code, svc::kErrBusy);
  } else {
    // The joiner raced past the flight's teardown and became a new
    // leader; it owes the cache a completion.
    cache.fail(key, svc::kErrBusy, "queue full");
  }
  EXPECT_EQ(cache.size(), 0u);  // errors are never cached
  EXPECT_EQ(cache.acquire(key).role, svc::ResultCache::Role::kLead);
  cache.fail(key, "X", "cleanup");
}

// ---------------------------------------------------------------------------
// Graph registry.

TEST(GraphRegistry, IdempotentAddLruEvictionAndSharedOwnership) {
  obs::MetricsRegistry metrics;
  svc::GraphRegistry reg(2, &metrics);

  const std::string fp1 = reg.add(make_ring(8, 1));
  const std::string fp2 = reg.add(make_ring(8, 2));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.add(make_ring(8, 1)), fp1);  // idempotent
  EXPECT_EQ(reg.size(), 2u);

  // Hold the about-to-be-evicted graph; find() touches fp1, so adding a
  // third graph evicts fp2.
  const std::shared_ptr<const Graph> held = reg.find(fp2);
  ASSERT_NE(held, nullptr);
  ASSERT_NE(reg.find(fp1), nullptr);
  const std::string fp3 = reg.add(make_ring(8, 3));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find(fp2), nullptr);
  EXPECT_NE(reg.find(fp3), nullptr);

  // The evicted graph survives for holders of the shared_ptr.
  EXPECT_EQ(held->num_nodes(), 8u);
  EXPECT_EQ(metrics.counter("mcr_graph_evictions_total").value(), 1u);
}

// ---------------------------------------------------------------------------
// Driver cancellation (the deadline hook).

TEST(DriverCancel, PresetFlagCancelsBeforeAnyWork) {
  const Graph g = make_ring(8, 1);
  std::atomic<bool> cancel{true};
  SolveOptions options;
  options.cancel = &cancel;
  const auto solver = SolverRegistry::instance().create("howard");
  EXPECT_THROW((void)minimum_cycle_mean(g, *solver, options), SolveCancelled);
}

TEST(DriverCancel, NullTokenSolvesNormally) {
  const Graph g = make_ring(8, 1);
  const auto solver = SolverRegistry::instance().create("howard");
  const CycleResult r = minimum_cycle_mean(g, *solver);
  EXPECT_TRUE(r.has_cycle);
}

// ---------------------------------------------------------------------------
// Registry error message (satellite: unknown --algo lists solvers).

TEST(RegistryErrors, UnknownSolverMessageListsRegisteredNames) {
  try {
    (void)SolverRegistry::instance().create("no_such_algorithm");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown solver 'no_such_algorithm'"), std::string::npos);
    EXPECT_NE(msg.find("registered solvers:"), std::string::npos);
    EXPECT_NE(msg.find("howard"), std::string::npos);
    EXPECT_NE(msg.find("karp"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Live server.

TEST(SvcServer, PingLoadSolveCacheAndStats) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  svc::Server server(so);
  server.start();

  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);
  EXPECT_TRUE(client.ping());

  const Graph g = make_ring(32, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  EXPECT_EQ(fp, fingerprint_hex(g));  // content addressing is canonical

  const json::Value first = client.solve(fp);
  ASSERT_EQ(first.string_or("status", ""), "ok");
  EXPECT_FALSE(first.at("cached").as_bool());
  const json::Value second = client.solve(fp);
  EXPECT_TRUE(second.at("cached").as_bool());

  // The served value matches a local solve of the same instance.
  const CycleResult local =
      minimum_cycle_mean(g, *SolverRegistry::instance().create("howard"));
  EXPECT_EQ(first.at("result").at("value_num").as_double(),
            static_cast<double>(local.value.num()));
  EXPECT_EQ(first.at("result").at("value_den").as_double(),
            static_cast<double>(local.value.den()));
  // Cached responses replay the original solve's wall time so the
  // result object is byte-stable.
  EXPECT_EQ(first.at("result").at("milliseconds").as_double(),
            second.at("result").at("milliseconds").as_double());

  const json::Value stats = client.stats();
  ASSERT_EQ(stats.string_or("status", ""), "ok");
  EXPECT_TRUE(stats.at("metrics").is_object());
  EXPECT_NE(stats.at("prometheus").as_string().find("mcr_requests_total"),
            std::string::npos);

  const json::Value solvers = client.request(R"({"verb":"SOLVERS"})");
  bool saw_howard = false;
  for (const json::Value& s : solvers.at("solvers").as_array()) {
    if (s.at("name").as_string() == "howard") saw_howard = true;
  }
  EXPECT_TRUE(saw_howard);

  server.stop_and_drain();
  EXPECT_FALSE(server.running());
}

TEST(SvcServer, StatsWindowUptimeBuildAndSaturationGauges) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.stats_window_s = 300.0;  // the whole test stays inside one window
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  const Graph g = make_ring(32, 5);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");

  // Plain STATS now reports uptime and build provenance, but pays for
  // the windowed merge only on request.
  const json::Value plain = client.stats();
  ASSERT_EQ(plain.string_or("status", ""), "ok");
  EXPECT_GT(plain.number_or("uptime_seconds", -1.0), 0.0);
  ASSERT_TRUE(plain.has("build"));
  EXPECT_FALSE(plain.at("build").string_or("compiler", "").empty());
  EXPECT_GE(plain.at("build").number_or("hardware_threads", -1.0), 1.0);
  EXPECT_FALSE(plain.has("window"));
  EXPECT_NE(plain.at("prometheus").as_string().find("mcr_build_info{"),
            std::string::npos);

  const json::Value windowed = client.stats(/*window=*/true);
  ASSERT_TRUE(windowed.has("window"));
  const json::Value& w = windowed.at("window");
  EXPECT_DOUBLE_EQ(w.number_or("window_seconds", 0.0), 300.0);
  const json::Value& verbs = w.at("verbs");
  ASSERT_TRUE(verbs.has("(all)"));
  ASSERT_TRUE(verbs.has("SOLVE"));
  EXPECT_GE(verbs.at("SOLVE").number_or("count", 0.0), 2.0);
  // With observations in the window every percentile is a number, and
  // the tail bounds the median.
  ASSERT_TRUE(verbs.at("SOLVE").at("p50_ms").is_number());
  ASSERT_TRUE(verbs.at("SOLVE").at("p99_ms").is_number());
  EXPECT_LE(verbs.at("SOLVE").at("p50_ms").as_double(),
            verbs.at("SOLVE").at("p99_ms").as_double());

  // Saturation gauges: the two solves each passed through the queue, so
  // the high-water mark moved; the snapshot connection is live.
  const json::Value& gauges = windowed.at("metrics").at("gauges");
  EXPECT_GE(gauges.number_or("mcr_queue_depth_highwater", -1.0), 1.0);
  EXPECT_GE(gauges.number_or("mcr_active_connections", 0.0), 1.0);
  EXPECT_GE(gauges.number_or("mcr_in_flight", -1.0), 0.0);

  server.stop_and_drain();
}

TEST(SvcServer, TelemetrySnapshotJsonIsDeltaBasedAndPumpWritesJsonl) {
  const std::string stats_path = unique_socket_path() + ".stats.jsonl";
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.stats_interval_s = 10.0;  // one tick at drain; the test drives the
  so.stats_out_path = stats_path;  // rest synchronously
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  const Graph g = make_ring(16, 3);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");

  // First snapshot: deltas equal the raw counters (empty baseline).
  const json::Value first = json::parse(server.telemetry_snapshot_json());
  EXPECT_GT(first.number_or("ts_ms", 0.0), 0.0);
  EXPECT_GT(first.number_or("uptime_seconds", -1.0), 0.0);
  const double solves_first = first.at("counters_delta")
                                  .number_or("mcr_requests_total{verb=\"SOLVE\"}", -1.0);
  EXPECT_EQ(solves_first, 1.0);
  ASSERT_TRUE(first.at("window").at("verbs").has("SOLVE"));
  // The info gauge is provenance, not telemetry: filtered from lines.
  EXPECT_EQ(server.telemetry_snapshot_json().find("mcr_build_info"),
            std::string::npos);

  // Second snapshot after one more solve: the delta is 1, not 2 — each
  // line advances the baseline.
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");
  const json::Value second = json::parse(server.telemetry_snapshot_json());
  EXPECT_EQ(second.at("counters_delta")
                .number_or("mcr_requests_total{verb=\"SOLVE\"}", -1.0),
            1.0);

  // Drain writes a final line, so even a shorter-than-interval run
  // leaves a parseable, non-empty time series.
  server.stop_and_drain();
  std::ifstream in(stats_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(json::parse(line).has("window"), true) << line;
  }
  EXPECT_GE(lines, 1u);
  ::unlink(stats_path.c_str());
}

TEST(SvcServer, TcpListenerOnEphemeralPort) {
  svc::ServerOptions so;
  so.tcp_port = 0;  // ephemeral
  svc::Server server(so);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  svc::Client client = svc::Client::connect_tcp(server.tcp_port());
  EXPECT_TRUE(client.ping());
  const Graph g = make_ring(8, 2);
  const std::string fp = client.load_dimacs_text(dimacs_text(g));
  EXPECT_EQ(client.solve(fp).string_or("status", ""), "ok");
  server.stop_and_drain();
}

TEST(SvcServer, TcpBindAddressIsConfigurable) {
  // --listen HOST:PORT plumbing: bind the wildcard address on an
  // ephemeral port and talk to it over loopback (a worker sitting
  // behind an mcr_router on another machine binds exactly like this).
  svc::ServerOptions so;
  so.tcp_bind_host = "0.0.0.0";
  so.tcp_port = 0;
  svc::Server server(so);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_TRUE(client.ping());
  server.stop_and_drain();

  // An unresolvable bind host fails loudly at start(), not at the first
  // request.
  svc::ServerOptions bad;
  bad.tcp_bind_host = "no.such.host.invalid";
  bad.tcp_port = 0;
  svc::Server unbindable(bad);
  EXPECT_THROW(unbindable.start(), std::runtime_error);
}

TEST(SvcServer, UnopenableStatsOutFailsStartWithoutListenerResidue) {
  // The stats output opens before any listener binds, so a bad path
  // fails start() without stranding a bound socket file.
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.stats_interval_s = 60.0;
  so.stats_out_path = "/nonexistent-mcr-dir/stats.jsonl";
  svc::Server server(so);
  EXPECT_THROW(server.start(), std::runtime_error);
  EXPECT_NE(::access(so.unix_socket_path.c_str(), F_OK), 0);
  EXPECT_FALSE(server.running());
}

TEST(SvcServer, ErrorsAreExplicitAndConnectionSurvives) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  // Unknown fingerprint.
  json::Value r = client.solve(std::string(32, '0'));
  EXPECT_EQ(r.string_or("code", ""), "NOT_FOUND");

  // Unknown algorithm lists the registered solvers.
  const std::string fp = client.load_dimacs_text(dimacs_text(make_ring(8, 1)));
  r = client.solve(fp, "min_mean", "definitely_not_a_solver");
  EXPECT_EQ(r.string_or("code", ""), "BAD_REQUEST");
  EXPECT_NE(r.string_or("message", "").find("registered solvers:"),
            std::string::npos);
  EXPECT_NE(r.string_or("message", "").find("howard"), std::string::npos);

  // Solver kind vs objective mismatch.
  r = client.solve(fp, "min_ratio", "howard");
  EXPECT_EQ(r.string_or("code", ""), "BAD_REQUEST");

  // Malformed JSON payload.
  r = client.request("this is not json");
  EXPECT_EQ(r.string_or("status", ""), "error");
  EXPECT_EQ(r.string_or("code", ""), "BAD_REQUEST");

  // Unknown verb.
  r = client.request(R"({"verb":"EXPLODE"})");
  EXPECT_EQ(r.string_or("code", ""), "BAD_REQUEST");

  // After all of the above the same connection still serves.
  EXPECT_TRUE(client.ping());
  server.stop_and_drain();
}

// The ISSUE acceptance test: the same solve from 8 concurrent clients
// runs exactly one underlying solve, and every response carries a
// byte-identical result object.
TEST(SvcServer, EightConcurrentClientsOneUnderlyingSolve) {
  ensure_sleepy_solvers();
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  svc::Server server(so);
  server.start();

  const Graph g = make_ring(16, 4);
  const std::string fp = [&] {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    return c.load_dimacs_text(dimacs_text(g));
  }();

  constexpr int kClients = 8;
  std::vector<std::string> raw(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
      raw[static_cast<std::size_t>(i)] = c.request_raw(
          R"({"verb":"SOLVE","fingerprint":")" + fp +
          R"(","objective":"min_mean","algo":"test_sleepy"})");
    });
  }
  for (std::thread& t : threads) t.join();

  // Every response succeeded and carries the identical result object
  // (the response prefix differs only in the "cached" flag).
  std::vector<std::string> results;
  for (const std::string& response : raw) {
    const json::Value v = json::parse(response);
    ASSERT_EQ(v.string_or("status", ""), "ok") << response;
    const std::size_t pos = response.find("\"result\":");
    ASSERT_NE(pos, std::string::npos);
    results.push_back(response.substr(pos));
  }
  for (const std::string& r : results) EXPECT_EQ(r, results.front());

  // Exactly one solve ran; the other seven were cache hits or flight
  // joiners.
  EXPECT_EQ(server.metrics().counter("mcr_solves_total").value(), 1u);
  const std::uint64_t hits =
      server.metrics().counter("mcr_cache_hits_total").value();
  const std::uint64_t joins =
      server.metrics().counter("mcr_singleflight_joins_total").value();
  EXPECT_EQ(hits + joins, 7u);

  server.stop_and_drain();
}

// The ISSUE backpressure test: queue capacity K, K + j concurrent slow
// distinct solves → j explicit BUSY rejections and mcr_rejected_total
// == j; every request gets an answer (no hangs, no drops).
TEST(SvcServer, BackpressureRejectsBeyondCapacity) {
  ensure_sleepy_solvers();
  constexpr std::size_t kCapacity = 2;
  constexpr int kRequests = 5;  // j = 3 rejections

  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.queue_capacity = kCapacity;
  svc::Server server(so);
  server.start();

  // Distinct graphs → distinct cache keys, so single-flight cannot
  // deduplicate them away.
  std::vector<std::string> fps;
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    for (int i = 0; i < kRequests; ++i) {
      fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 10 * (i + 1)))));
    }
  }

  std::vector<std::string> codes(kRequests);
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
      const json::Value v =
          c.solve(fps[static_cast<std::size_t>(i)], "min_mean", "test_sleepy");
      codes[static_cast<std::size_t>(i)] = v.string_or("status", "") == "ok"
                                               ? "OK"
                                               : v.string_or("code", "?");
    });
  }
  for (std::thread& t : threads) t.join();

  int ok = 0;
  int busy = 0;
  for (const std::string& code : codes) {
    if (code == "OK") ++ok;
    if (code == "BUSY") ++busy;
  }
  EXPECT_EQ(ok, static_cast<int>(kCapacity));
  EXPECT_EQ(busy, kRequests - static_cast<int>(kCapacity));
  EXPECT_EQ(server.metrics().counter("mcr_rejected_total").value(),
            static_cast<std::uint64_t>(kRequests) - kCapacity);

  server.stop_and_drain();
}

TEST(SvcServer, DeadlineExpiresWhileQueuedOrBeforeSolve) {
  ensure_sleepy_solvers();
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  svc::Server server(so);
  server.start();

  std::vector<std::string> fps;
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 1))));
    fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 2))));
  }

  // Occupy the dispatcher with a slow solve, then submit a second slow
  // solve (different algorithm name → different dispatch group, so it
  // is never batched into the first) with a deadline far shorter than
  // the dispatcher's busy window. Whether it expires while queued or at
  // the driver's entry check, the client gets DEADLINE_EXCEEDED.
  std::thread occupant([&] {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    const json::Value v = c.solve(fps[0], "min_mean", "test_sleepy");
    EXPECT_EQ(v.string_or("status", ""), "ok");
  });
  std::this_thread::sleep_for(80ms);

  svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
  const json::Value v = c.solve(fps[1], "min_mean", "test_sleepy2",
                                /*deadline_ms=*/100.0);
  EXPECT_EQ(v.string_or("code", ""), "DEADLINE_EXCEEDED");

  occupant.join();
  EXPECT_GE(server.metrics().counter("mcr_deadline_cancelled_total").value(), 1u);
  server.stop_and_drain();
}

TEST(SvcServer, DeadlineCancelsMidSolveAtComponentBoundary) {
  ensure_sleepy_solvers();
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.solve_threads = 1;  // serial driver: components run one after another
  svc::Server server(so);
  server.start();

  // Four disjoint self-loops = four cyclic SCCs; the sleepy solver
  // spends kNap per component, and the driver polls the cancel token
  // between components. Deadline of 1.5 naps → cancelled at the second
  // or third component boundary, long before the 4-nap full solve.
  GraphBuilder b(4);
  for (NodeId u = 0; u < 4; ++u) b.add_arc(u, u, 1 + u);

  svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
  const std::string fp = c.load_dimacs_text(dimacs_text(b.build()));
  const auto started = std::chrono::steady_clock::now();
  const json::Value v =
      c.solve(fp, "min_mean", "test_sleepy",
              std::chrono::duration_cast<std::chrono::milliseconds>(kNap).count() * 1.5);
  const auto elapsed = std::chrono::steady_clock::now() - started;

  EXPECT_EQ(v.string_or("code", ""), "DEADLINE_EXCEEDED");
  EXPECT_LT(elapsed, 4 * kNap);  // cancelled well before a full solve
  EXPECT_GE(server.metrics().counter("mcr_deadline_cancelled_total").value(), 1u);
  server.stop_and_drain();
}

TEST(SvcServer, DrainCompletesInFlightRequests) {
  ensure_sleepy_solvers();
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  svc::Server server(so);
  server.start();

  const std::string fp = [&] {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    return c.load_dimacs_text(dimacs_text(make_ring(8, 3)));
  }();

  std::string status;
  std::thread in_flight([&] {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    status = c.solve(fp, "min_mean", "test_sleepy").string_or("status", "");
  });
  std::this_thread::sleep_for(80ms);  // request is solving by now

  server.stop_and_drain();  // must wait for the in-flight solve
  in_flight.join();
  EXPECT_EQ(status, "ok");
  EXPECT_FALSE(server.running());

  // The socket is gone: new connections are refused.
  EXPECT_THROW((void)svc::Client::connect_unix(so.unix_socket_path),
               std::runtime_error);
}

TEST(SvcServer, HealthVerbReportsLivenessAndQueueState) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.queue_capacity = 17;
  svc::Server server(so);
  server.start();

  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);
  const json::Value before = client.health();
  ASSERT_EQ(before.string_or("status", ""), "ok");
  EXPECT_TRUE(before.at("healthy").as_bool());
  EXPECT_FALSE(before.at("draining").as_bool());
  EXPECT_EQ(before.at("queue_depth").as_double(), 0.0);
  EXPECT_EQ(before.at("in_flight").as_double(), 0.0);
  EXPECT_EQ(before.at("queue_capacity").as_double(), 17.0);
  EXPECT_GE(before.at("connections").as_double(), 1.0);  // at least ours
  EXPECT_GE(before.at("uptime_seconds").as_double(), 0.0);
  // No solve has completed yet: the age sentinel is -1.
  EXPECT_EQ(before.at("last_solve_age_seconds").as_double(), -1.0);

  const std::string fp = client.load_dimacs_text(dimacs_text(make_ring(8, 3)));
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");
  const json::Value after = client.health();
  EXPECT_GE(after.at("last_solve_age_seconds").as_double(), 0.0);

  server.stop_and_drain();
}

// ---------------------------------------------------------------------------
// Trace context on the wire, the flight recorder, TRACE, request logs.

TEST(TraceContext, GeneratedIdsAreValidAndDistinct) {
  const std::string a = svc::generate_trace_id();
  const std::string b = svc::generate_trace_id();
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(a, b);
  EXPECT_TRUE(svc::is_valid_trace_id(a));
  EXPECT_TRUE(svc::is_valid_trace_id(b));
}

TEST(TraceContext, ValidatorAcceptsTokenCharsOnly) {
  EXPECT_TRUE(svc::is_valid_trace_id("abc-123_XYZ"));
  EXPECT_TRUE(svc::is_valid_trace_id("a"));
  EXPECT_FALSE(svc::is_valid_trace_id(""));
  EXPECT_FALSE(svc::is_valid_trace_id("has space"));
  EXPECT_FALSE(svc::is_valid_trace_id("quote\"inside"));
  EXPECT_FALSE(svc::is_valid_trace_id(std::string(svc::kMaxTraceIdBytes + 1, 'a')));
  EXPECT_TRUE(svc::is_valid_trace_id(std::string(svc::kMaxTraceIdBytes, 'a')));
}

TEST(TraceContext, WithTraceIdSplicesAtTheFront) {
  // The id leads the object so existing consumers that slice from the
  // *last* field ("result", "chrome_trace") keep working unchanged.
  EXPECT_EQ(svc::with_trace_id("{\"status\":\"ok\"}", "t1"),
            "{\"trace_id\":\"t1\",\"status\":\"ok\"}");
  EXPECT_EQ(svc::with_trace_id("{}", "t2"), "{\"trace_id\":\"t2\"}");
}

TEST(SvcTrace, ServerEchoesMintsAndRejectsWireTraceIds) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.flight.slow_ms = 0.0;  // pin everything
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  // Caller-supplied id: echoed verbatim, spliced at the response front.
  const std::string echoed = client.request_raw(
      R"({"verb":"PING","trace_id":"caller-id-1"})");
  EXPECT_EQ(echoed.rfind("{\"trace_id\":\"caller-id-1\",", 0), 0u) << echoed;

  // No id on the wire: the server mints one and still reports it.
  const json::Value minted = json::parse(client.request_raw(R"({"verb":"PING"})"));
  const std::string minted_id = minted.string_or("trace_id", "");
  EXPECT_EQ(minted_id.size(), 32u);
  EXPECT_TRUE(svc::is_valid_trace_id(minted_id));

  // A malformed id is a BAD_REQUEST; the error response carries a
  // server-minted id so even the rejection is traceable.
  const json::Value rejected = json::parse(client.request_raw(
      R"({"verb":"PING","trace_id":"not ok!"})"));
  EXPECT_EQ(rejected.string_or("code", ""), "BAD_REQUEST");
  EXPECT_TRUE(svc::is_valid_trace_id(rejected.string_or("trace_id", "")));
  EXPECT_NE(rejected.string_or("trace_id", ""), "not ok!");

  // Errors always pin: both traceable requests above are retrievable.
  EXPECT_GE(server.flight().pinned_size(), 1u);
  server.stop_and_drain();
}

TEST(SvcTrace, TraceVerbServesQueueAndDispatchSpans) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.flight.slow_ms = 0.0;
  so.flight.sample_rate = 1.0;  // full solver detail for every request
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  client.set_trace_id("e2e-solve-trace");
  const std::string fp = client.load_dimacs_text(dimacs_text(make_ring(16, 2)));
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");

  client.set_trace_id("");  // the TRACE request gets its own context
  const std::string raw = client.request_raw(
      R"({"verb":"TRACE","id":"e2e-solve-trace"})");
  const json::Value v = json::parse(raw);
  ASSERT_EQ(v.string_or("status", ""), "ok");
  EXPECT_EQ(v.at("count").as_double(), 2.0);  // the LOAD and the SOLVE
  EXPECT_GE(v.at("ring_size").as_double(), 2.0);
  EXPECT_GE(v.at("finished_total").as_double(), 2.0);
  ASSERT_TRUE(v.at("chrome_trace").is_object());
  // The solve's life-cycle spans are all present in the export: the
  // request envelope, the queue wait, and the dispatch with solver
  // detail (sampled at 1.0, so component spans ride along).
  EXPECT_NE(raw.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(raw.find("\"cat\":\"queue\""), std::string::npos);
  EXPECT_NE(raw.find("\"cat\":\"dispatch\""), std::string::npos);
  EXPECT_NE(raw.find("\"cat\":\"solve\""), std::string::npos);
  EXPECT_NE(raw.find("e2e-solve-trace"), std::string::npos);
  server.stop_and_drain();
}

TEST(SvcTrace, TraceVerbFiltersByVerbAndDuration) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.flight.slow_ms = 0.0;
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.ping());
  const std::string fp = client.load_dimacs_text(dimacs_text(make_ring(8, 1)));
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");

  json::Value v = json::parse(client.request_raw(
      R"({"verb":"TRACE","match_verb":"SOLVE"})"));
  EXPECT_EQ(v.at("count").as_double(), 1.0);
  v = json::parse(client.request_raw(R"({"verb":"TRACE","match_verb":"PING"})"));
  EXPECT_EQ(v.at("count").as_double(), 2.0);
  // An impossible duration floor matches nothing but still answers ok.
  v = json::parse(client.request_raw(R"({"verb":"TRACE","min_ms":1e9})"));
  EXPECT_EQ(v.string_or("status", ""), "ok");
  EXPECT_EQ(v.at("count").as_double(), 0.0);
  // limit trims to the newest traces.
  v = json::parse(client.request_raw(R"({"verb":"TRACE","limit":1})"));
  EXPECT_EQ(v.at("count").as_double(), 1.0);
  server.stop_and_drain();
}

// TRACE under load: concurrent clients fetch the ring while solves are
// in flight (this file runs under TSan in CI — the assertion here is
// mostly "no data races, every response parses").
TEST(SvcTrace, ConcurrentTraceFetchesDuringLiveSolves) {
  ensure_sleepy_solvers();
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.flight.slow_ms = 0.0;
  so.flight.sample_rate = 1.0;
  // Every TRACE request is itself recorded, and the fetchers below issue
  // thousands of them while the solves sleep — size the ring so the
  // flood cannot evict the two SOLVE traces before the final check.
  so.flight.capacity = 1 << 16;
  svc::Server server(so);
  server.start();

  std::vector<std::string> fps;
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 1))));
    fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 2))));
  }

  std::atomic<int> solving{2};
  std::vector<std::thread> solvers;
  solvers.reserve(2);
  for (int i = 0; i < 2; ++i) {
    solvers.emplace_back([&, i] {
      svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
      const json::Value v = c.solve(fps[static_cast<std::size_t>(i)], "min_mean",
                                    i == 0 ? "test_sleepy" : "test_sleepy2");
      EXPECT_EQ(v.string_or("status", ""), "ok");
      solving.fetch_sub(1, std::memory_order_release);
    });
  }
  std::vector<std::thread> fetchers;
  fetchers.reserve(2);
  for (int f = 0; f < 2; ++f) {
    fetchers.emplace_back([&] {
      svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
      while (solving.load(std::memory_order_acquire) > 0) {
        const json::Value v = c.request(R"({"verb":"TRACE"})");
        EXPECT_EQ(v.string_or("status", ""), "ok");
      }
    });
  }
  for (std::thread& t : solvers) t.join();
  for (std::thread& t : fetchers) t.join();

  // Both solves are now retained and exportable.
  svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
  const json::Value v = c.request(R"({"verb":"TRACE","match_verb":"SOLVE"})");
  EXPECT_EQ(v.at("count").as_double(), 2.0);
  server.stop_and_drain();
}

// A retried flight keeps one trace id across attempts, each attempt a
// child span ("attempt/<k>"), so the server-side ring shows the whole
// story: the BUSY rejections and the final success, under one id.
TEST(SvcTrace, RetryReusesFlightTraceIdWithAttemptSpans) {
  ensure_sleepy_solvers();
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.queue_capacity = 1;
  so.flight.slow_ms = 0.0;
  svc::Server server(so);
  server.start();

  std::vector<std::string> fps;
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 1))));
    fps.push_back(c.load_dimacs_text(dimacs_text(make_ring(8, 2))));
  }

  // Fill the single admission slot with a slow solve...
  std::thread occupant([&] {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    EXPECT_EQ(c.solve(fps[0], "min_mean", "test_sleepy").string_or("status", ""),
              "ok");
  });
  std::this_thread::sleep_for(80ms);

  // ...so the retrying client draws at least one BUSY before it lands.
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);
  svc::RetryPolicy policy;
  policy.max_attempts = 20;
  policy.initial_backoff_ms = 40.0;
  policy.max_backoff_ms = 80.0;
  policy.budget_ms = 20'000.0;
  client.set_retry_policy(policy);
  client.set_trace_id("retry-flight-1");
  const json::Value r = client.solve_retry(fps[1], "min_mean", "howard");
  EXPECT_EQ(r.string_or("status", ""), "ok");
  EXPECT_EQ(r.string_or("trace_id", ""), "retry-flight-1");
  occupant.join();

  client.set_trace_id("");
  const std::string raw =
      client.request_raw(R"({"verb":"TRACE","id":"retry-flight-1"})");
  const json::Value v = json::parse(raw);
  ASSERT_EQ(v.string_or("status", ""), "ok");
  EXPECT_GE(v.at("count").as_double(), 2.0);  // >= one BUSY + the success
  EXPECT_NE(raw.find("\"parent_span\":\"attempt/1\""), std::string::npos) << raw;
  server.stop_and_drain();
}

TEST(RequestLogFormat, OmitsEmptyStringsAndNegativeDurations) {
  svc::RequestLog::Entry e;
  e.ts_ms = 1500.25;
  e.trace_id = "t1";
  e.verb = "SOLVE";
  e.cache = "miss";
  e.queue_ms = 0.5;
  e.solve_ms = 2.0;
  e.total_ms = 3.25;
  // fingerprint/algo/objective empty, deadline_ms negative: all absent;
  // "code" present even when empty so successes are greppable.
  EXPECT_EQ(svc::RequestLog::format(e),
            "{\"ts_ms\":1500.25,\"trace_id\":\"t1\",\"verb\":\"SOLVE\","
            "\"cache\":\"miss\",\"queue_ms\":0.5,\"solve_ms\":2,"
            "\"code\":\"\",\"total_ms\":3.25}");
  e.code = "BUSY";
  e.deadline_ms = 100.0;
  EXPECT_NE(svc::RequestLog::format(e).find("\"deadline_ms\":100,\"code\":\"BUSY\""),
            std::string::npos);
}

TEST(SvcTrace, RequestLogWritesOneJsonLinePerRequest) {
  const std::string log_path = unique_socket_path() + ".jsonl";
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.request_log_path = log_path;
  svc::Server server(so);
  server.start();

  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);
  EXPECT_TRUE(client.ping());
  const std::string fp = client.load_dimacs_text(dimacs_text(make_ring(8, 4)));
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");        // miss
  ASSERT_EQ(client.solve(fp).string_or("status", ""), "ok");        // hit
  EXPECT_EQ(client.solve(std::string(32, '0')).string_or("code", ""),
            "NOT_FOUND");
  server.stop_and_drain();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(json::parse(line));
  }
  ASSERT_EQ(lines.size(), 5u);
  for (const json::Value& entry : lines) {
    EXPECT_FALSE(entry.string_or("trace_id", "").empty());
    EXPECT_FALSE(entry.string_or("verb", "").empty());
    EXPECT_TRUE(entry.has("code"));  // "" on success, typed code on error
    EXPECT_GE(entry.at("total_ms").as_double(), 0.0);
  }
  EXPECT_EQ(lines[0].string_or("verb", ""), "PING");
  EXPECT_EQ(lines[1].string_or("verb", ""), "LOAD");
  EXPECT_EQ(lines[2].string_or("cache", ""), "miss");
  EXPECT_GE(lines[2].at("solve_ms").as_double(), 0.0);
  EXPECT_GE(lines[2].at("queue_ms").as_double(), 0.0);
  EXPECT_EQ(lines[2].string_or("fingerprint", ""), fp);
  EXPECT_EQ(lines[3].string_or("cache", ""), "hit");
  EXPECT_EQ(lines[4].string_or("code", ""), "NOT_FOUND");
  ::unlink(log_path.c_str());
}

// ---------------------------------------------------------------------------
// Frame fuzzer (satellite: protocol robustness under ASan).

TEST(FrameFuzz, TruncatedHeadersAbsurdLengthsAndGarbage) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.max_frame_bytes = 64 * 1024;
  svc::Server server(so);
  server.start();

  // Truncated header: a few bytes, then hang up.
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    c.send_bytes(std::string("MC", 2));
  }
  // Absurd length prefix: explicit FRAME_TOO_LARGE, then close.
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    c.send_bytes(std::string("MCR1\xff\xff\xff\x7f", 8));
    const json::Value v = json::parse(c.read_payload());
    EXPECT_EQ(v.string_or("code", ""), "FRAME_TOO_LARGE");
    EXPECT_THROW((void)c.read_payload(), std::runtime_error);  // closed
  }
  // Bad magic: explicit BAD_FRAME, then close.
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    c.send_bytes(std::string("GET /metrics HTTP/1.1\r\n\r\n"));
    const json::Value v = json::parse(c.read_payload());
    EXPECT_EQ(v.string_or("code", ""), "BAD_FRAME");
  }

  Prng rng(0xF0221);
  // Well-framed garbage payloads: every one answers an explicit error
  // on a connection that stays up.
  {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    for (int iter = 0; iter < 100; ++iter) {
      std::string garbage(static_cast<std::size_t>(rng.uniform_int(1, 512)), '\0');
      for (char& ch : garbage) {
        ch = static_cast<char>(rng.uniform_int(0, 255));
      }
      const json::Value v = json::parse(c.request_raw(garbage));
      EXPECT_EQ(v.string_or("status", ""), "error");
    }
    EXPECT_TRUE(c.ping());  // same connection still serves
  }
  // Raw unframed byte streams on fresh connections.
  for (int iter = 0; iter < 20; ++iter) {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    std::string noise(static_cast<std::size_t>(rng.uniform_int(1, 64)), '\0');
    for (char& ch : noise) ch = static_cast<char>(rng.uniform_int(0, 255));
    c.send_bytes(noise);
  }

  // The server survived everything above.
  svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
  EXPECT_TRUE(c.ping());
  EXPECT_GE(server.metrics().counter("mcr_bad_frames_total").value(), 2u);
  server.stop_and_drain();
}

// ---------------------------------------------------------------------------
// Versioned datasets: --dataset attach at startup, RELOAD hot-swap.

/// A /tmp pack written from a graph, removed on scope exit.
struct TempPackFile {
  explicit TempPackFile(const Graph& g) {
    static std::atomic<int> counter{0};
    path = "/tmp/mcr_svc_pack_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".mcrpack";
    store::write_pack(path, g);
  }
  ~TempPackFile() { std::remove(path.c_str()); }
  TempPackFile(const TempPackFile&) = delete;
  TempPackFile& operator=(const TempPackFile&) = delete;
  std::string path;
};

TEST(SvcDataset, AttachAtStartupThenHotSwapServesBothGenerations) {
  const Graph ga = make_ring(24, 7);
  const Graph gb = make_ring(40, 11);
  const std::string fp_a = fingerprint_hex(ga);
  const std::string fp_b = fingerprint_hex(gb);
  TempPackFile pack_a(ga), pack_b(gb);

  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.dataset_path = pack_a.path;
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  // Generation 1 is resident at startup: solvable with no LOAD, and
  // bit-equal to a local solve of the same content.
  const json::Value first = client.solve(fp_a);
  ASSERT_EQ(first.string_or("status", ""), "ok");
  const CycleResult local_a =
      minimum_cycle_mean(ga, *SolverRegistry::instance().create("howard"));
  EXPECT_EQ(first.at("result").at("value_num").as_double(),
            static_cast<double>(local_a.value.num()));
  json::Value stats = client.stats();
  ASSERT_TRUE(stats.has("dataset"));
  EXPECT_EQ(stats.at("dataset").at("generation").as_double(), 1.0);
  EXPECT_EQ(stats.at("dataset").at("fingerprint").as_string(), fp_a);

  // Hot-swap to pack B. The response names B's fingerprint and the
  // bumped generation.
  const json::Value swapped = client.reload(pack_b.path);
  ASSERT_EQ(swapped.string_or("status", ""), "ok");
  EXPECT_EQ(swapped.at("fingerprint").as_string(), fp_b);
  EXPECT_EQ(swapped.at("generation").as_double(), 2.0);

  // Post-swap solves hit B; A's content and cache entry stay valid.
  const json::Value post = client.solve(fp_b);
  ASSERT_EQ(post.string_or("status", ""), "ok");
  const CycleResult local_b =
      minimum_cycle_mean(gb, *SolverRegistry::instance().create("howard"));
  EXPECT_EQ(post.at("result").at("value_num").as_double(),
            static_cast<double>(local_b.value.num()));
  const json::Value replay = client.solve(fp_a);
  ASSERT_EQ(replay.string_or("status", ""), "ok");
  EXPECT_TRUE(replay.at("cached").as_bool());

  stats = client.stats();
  EXPECT_EQ(stats.at("dataset").at("generation").as_double(), 2.0);
  EXPECT_EQ(stats.at("dataset").at("fingerprint").as_string(), fp_b);
  EXPECT_EQ(stats.at("dataset").at("path").as_string(), pack_b.path);

  server.stop_and_drain();
}

TEST(SvcDataset, FailedReloadAnswersBadRequestAndKeepsServing) {
  const Graph ga = make_ring(24, 3);
  TempPackFile pack_a(ga);
  // A corrupt pack: one payload byte flipped fails the checksum.
  std::string bytes;
  {
    std::ifstream is(pack_a.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x10);
  const std::string corrupt_path = pack_a.path + ".corrupt";
  {
    std::ofstream os(corrupt_path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.dataset_path = pack_a.path;
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);

  const json::Value rejected = client.reload(corrupt_path);
  EXPECT_EQ(rejected.string_or("status", ""), "error");
  EXPECT_EQ(rejected.string_or("code", ""), "BAD_REQUEST");
  EXPECT_NE(rejected.string_or("message", "").find("checksum"),
            std::string::npos);

  // The old generation is untouched and still serves.
  const json::Value stats = client.stats();
  EXPECT_EQ(stats.at("dataset").at("generation").as_double(), 1.0);
  EXPECT_EQ(client.solve(fingerprint_hex(ga)).string_or("status", ""), "ok");

  std::remove(corrupt_path.c_str());
  server.stop_and_drain();
}

TEST(SvcDataset, ReloadWithoutDatasetOrPathIsBadRequest) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  svc::Server server(so);
  server.start();
  svc::Client client = svc::Client::connect_unix(so.unix_socket_path);
  const json::Value v = client.reload();
  EXPECT_EQ(v.string_or("status", ""), "error");
  EXPECT_EQ(v.string_or("code", ""), "BAD_REQUEST");
  server.stop_and_drain();
}

TEST(SvcDataset, ReloadDuringDrainIsRefused) {
  // The RELOAD/SIGHUP-vs-drain race: once stop_and_drain has begun, a
  // racing attach_dataset must NOT publish a generation that nothing
  // will ever serve. The server sets its drain guard *before* running_
  // flips, so observing running() == false makes this deterministic.
  ensure_sleepy_solvers();
  const Graph ga = make_ring(24, 7);
  const Graph gb = make_ring(40, 11);
  const std::string fp_a = fingerprint_hex(ga);
  TempPackFile pack_a(ga), pack_b(gb);

  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.dataset_path = pack_a.path;
  svc::Server server(so);
  server.start();

  // Park a slow solve in flight so the drain has something to wait on
  // while we race the attach.
  std::thread solver_thread([&] {
    svc::Client c = svc::Client::connect_unix(so.unix_socket_path);
    const json::Value r = c.solve(fp_a, "min_mean", "test_sleepy");
    EXPECT_EQ(r.string_or("status", ""), "ok");
  });
  while (server.metrics().gauge("mcr_in_flight").value() < 1) {
    std::this_thread::sleep_for(1ms);
  }

  std::thread drainer([&] { server.stop_and_drain(); });
  while (server.running()) std::this_thread::sleep_for(1ms);
  EXPECT_THROW((void)server.attach_dataset(pack_b.path), std::runtime_error);
  drainer.join();
  solver_thread.join();

  // The pre-drain generation is still the published one.
  const auto ds = server.dataset();
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->generation, 1u);
  EXPECT_EQ(ds->fingerprint, fp_a);
}

TEST(SvcDataset, StartupWithBadDatasetFailsLoudly) {
  svc::ServerOptions so;
  so.unix_socket_path = unique_socket_path();
  so.dataset_path = "/tmp/mcr_svc_pack_absent.mcrpack";
  svc::Server server(so);
  // A daemon told to serve a dataset it cannot attach must not come up
  // quietly empty.
  EXPECT_THROW(server.start(), store::PackError);
}

}  // namespace
