// End-to-end tests of the command-line tools: generate an instance with
// mcr_gen, solve and verify it with mcr_solve, and smoke the fuzzer.
// Tool paths are injected by CMake (MCR_TOOL_DIR).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"

namespace {

std::string tool(const std::string& name) {
  return std::string(MCR_TOOL_DIR) + "/" + name;
}

struct RunOutput {
  int exit_code;
  std::string stdout_text;
};

RunOutput run(const std::string& cmd) {
  // Unique per process: ctest runs the E2E cases concurrently, and a
  // shared capture file races.
  const std::string out_path =
      (std::filesystem::temp_directory_path() /
       ("mcr_e2e_out." + std::to_string(::getpid()) + ".txt"))
          .string();
  const int rc = std::system((cmd + " > " + out_path + " 2>&1").c_str());
  std::ifstream in(out_path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(out_path.c_str());
  return RunOutput{rc, ss.str()};
}

TEST(ToolsE2E, GenSolveRoundTrip) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_graph.dimacs").string();
  const auto gen = run(tool("mcr_gen") + " sprand --n 80 --m 240 --seed 5 --out " + file);
  ASSERT_EQ(gen.exit_code, 0) << gen.stdout_text;

  const auto solve = run(tool("mcr_solve") + " " + file + " --verify --critical");
  EXPECT_EQ(solve.exit_code, 0) << solve.stdout_text;
  EXPECT_NE(solve.stdout_text.find("minimum cycle mean"), std::string::npos);
  EXPECT_NE(solve.stdout_text.find("verify: OK"), std::string::npos);
  std::remove(file.c_str());
}

TEST(ToolsE2E, SolveAllAgree) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_graph2.dimacs").string();
  ASSERT_EQ(run(tool("mcr_gen") + " circuit --n 64 --seed 3 --out " + file).exit_code, 0);
  const auto solve = run(tool("mcr_solve") + " " + file + " --all --verify");
  EXPECT_EQ(solve.exit_code, 0) << solve.stdout_text;
  // Every listed solver must print the same value; count distinct "= x ("
  // fragments indirectly by requiring no verify failure.
  EXPECT_EQ(solve.stdout_text.find("verify: a cycle"), std::string::npos);
  std::remove(file.c_str());
}

TEST(ToolsE2E, SolverListIncludesHoward) {
  const auto out = run(tool("mcr_solve") + " --list=");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.stdout_text.find("howard"), std::string::npos);
  EXPECT_NE(out.stdout_text.find("karp"), std::string::npos);
}

TEST(ToolsE2E, BadUsageFails) {
  EXPECT_NE(run(tool("mcr_solve")).exit_code, 0);
  EXPECT_NE(run(tool("mcr_gen") + " bogus_family").exit_code, 0);
  EXPECT_NE(run(tool("mcr_solve") + " /nonexistent.dimacs").exit_code, 0);
}

TEST(ToolsE2E, FuzzSmoke) {
  const auto out = run(tool("mcr_fuzz") + " --trials 5 --max-n 24 --seed 3");
  EXPECT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("all 5 trials agree"), std::string::npos);
}

TEST(ToolsE2E, JsonOutput) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_json.dimacs").string();
  ASSERT_EQ(run(tool("mcr_gen") + " ring --n 4 --seed 1 --out " + file).exit_code, 0);
  const auto out = run(tool("mcr_solve") + " " + file + " --json=");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.stdout_text.find("\"algorithm\":\"howard\""), std::string::npos);
  EXPECT_NE(out.stdout_text.find("\"has_cycle\":true"), std::string::npos);
  EXPECT_NE(out.stdout_text.find("\"cycle_length\":4"), std::string::npos);
  std::remove(file.c_str());
}

TEST(ToolsE2E, SolveMetricsIncludeBuildInfoGauge) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_metrics.dimacs").string();
  ASSERT_EQ(run(tool("mcr_gen") + " ring --n 6 --seed 2 --out " + file).exit_code, 0);
  const auto out = run(tool("mcr_solve") + " " + file + " --metrics=");
  EXPECT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("mcr_build_info{"), std::string::npos)
      << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("git_sha=\""), std::string::npos);
  EXPECT_NE(out.stdout_text.find("compiler=\""), std::string::npos);
  std::remove(file.c_str());
}

TEST(ToolsE2E, BenchArtifactAndSelfDiff) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mcr_e2e_bench." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string artifact = (dir / "BENCH_e2e.json").string();
  const auto bench =
      run(tool("mcr_bench") + " --name e2e --workload sprand --solvers howard,ko"
          " --max-n 128 --trials 3 --out " + artifact);
  ASSERT_EQ(bench.exit_code, 0) << bench.stdout_text;
  EXPECT_NE(bench.stdout_text.find("schema v1"), std::string::npos);

  // The artifact parses as JSON and carries the schema marker + stats.
  std::ifstream in(artifact);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema\":\"mcr-bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"median\":"), std::string::npos);
  EXPECT_NE(json.find("\"ci_upper\":"), std::string::npos);
  EXPECT_NE(json.find("\"phases\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":"), std::string::npos);

  // Self-diff: zero regressions, exit 0 — the CI gate's base case.
  const auto diff = run(tool("mcr_bench_diff") + " " + artifact + " " + artifact);
  EXPECT_EQ(diff.exit_code, 0) << diff.stdout_text;
  EXPECT_NE(diff.stdout_text.find("0 regression(s)"), std::string::npos)
      << diff.stdout_text;
  std::filesystem::remove_all(dir);
}

TEST(ToolsE2E, BenchDiffRejectsGarbageInput) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mcr_e2e_badjson." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string bogus = (dir / "bogus.json").string();
  std::ofstream(bogus) << "{\"schema\":\"not-mcr\"}\n";
  const int status = run(tool("mcr_bench_diff") + " " + bogus + " " + bogus).exit_code;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);  // artifact errors exit 2, not 1
  EXPECT_NE(run(tool("mcr_bench_diff") + " /nonexistent.json /nonexistent.json")
                .exit_code,
            0);
  std::filesystem::remove_all(dir);
}

TEST(ToolsE2E, RatioMode) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_ratio.dimacs").string();
  ASSERT_EQ(run(tool("mcr_gen") + " sprand --n 30 --m 90 --tmin 1 --tmax 5 --out " + file)
                .exit_code,
            0);
  const auto solve = run(tool("mcr_solve") + " " + file + " --ratio --verify");
  EXPECT_EQ(solve.exit_code, 0) << solve.stdout_text;
  EXPECT_NE(solve.stdout_text.find("minimum cycle ratio"), std::string::npos);
  std::remove(file.c_str());
}

TEST(ToolsE2E, VersionFlagOnEveryTool) {
  for (const char* name : {"mcr_solve", "mcr_gen", "mcr_fuzz", "mcr_bench",
                           "mcr_bench_diff", "mcr_serve", "mcr_query"}) {
    const auto out = run(tool(name) + " --version=");
    EXPECT_EQ(out.exit_code, 0) << name << ": " << out.stdout_text;
    EXPECT_NE(out.stdout_text.find(name), std::string::npos) << out.stdout_text;
    EXPECT_NE(out.stdout_text.find("git sha:"), std::string::npos) << name;
    EXPECT_NE(out.stdout_text.find("compiler:"), std::string::npos) << name;
  }
}

TEST(ToolsE2E, OutputJsonIsValidJson) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_ojson.dimacs").string();
  ASSERT_EQ(run(tool("mcr_gen") + " circuit --n 48 --seed 7 --out " + file).exit_code, 0);
  // The JSON line (stdout also carries the instance banner) must
  // satisfy a real JSON parser.
  const auto out = run(tool("mcr_solve") + " " + file +
                       " --output json | grep '^{' | python3 -m json.tool");
  EXPECT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("\"value_num\""), std::string::npos);
  EXPECT_NE(out.stdout_text.find("\"cycle_arcs\""), std::string::npos);
  std::remove(file.c_str());
}

TEST(ToolsE2E, UnknownAlgoListsRegisteredSolvers) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mcr_e2e_badalgo.dimacs").string();
  ASSERT_EQ(run(tool("mcr_gen") + " ring --n 4 --seed 1 --out " + file).exit_code, 0);
  const auto out = run(tool("mcr_solve") + " " + file + " --algo not_an_algo");
  EXPECT_NE(out.exit_code, 0);
  EXPECT_NE(out.stdout_text.find("unknown solver 'not_an_algo'"), std::string::npos)
      << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("registered solvers:"), std::string::npos);
  EXPECT_NE(out.stdout_text.find("howard"), std::string::npos);
  std::remove(file.c_str());
}

// ---------------------------------------------------------------------------
// Solve service e2e: a real mcr_serve process driven through mcr_query.

pid_t spawn_tool(const std::vector<std::string>& argv, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: redirect output and exec.
  if (std::freopen(log_path.c_str(), "w", stdout) == nullptr) _exit(127);
  (void)::dup2(1, 2);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  _exit(127);
}

bool wait_for_ping(const std::string& socket_path) {
  for (int i = 0; i < 100; ++i) {
    if (run(tool("mcr_query") + " --socket " + socket_path + " ping").exit_code == 0) {
      return true;
    }
    ::usleep(100 * 1000);
  }
  return false;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The ISSUE acceptance e2e: mcr_serve on a Unix socket, the same solve
// from 8 concurrent mcr_query clients → all result objects
// byte-identical, they match mcr_solve's schema on the same instance
// (up to wall time, the schema's trailing field), the service metrics
// prove exactly one underlying solve ran, and SIGTERM drains an
// in-flight request before the process exits 0.
TEST(ToolsE2E, ServeQueryConcurrentClientsAndDrain) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("mcr_e2e_svc." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string graph = (dir / "g.dimacs").string();
  const std::string sock = (dir / "mcr.sock").string();
  const std::string log = (dir / "serve.log").string();
  ASSERT_EQ(
      run(tool("mcr_gen") + " circuit --n 400 --seed 11 --out " + graph).exit_code, 0);

  const pid_t server = spawn_tool({tool("mcr_serve"), "--socket", sock}, log);
  ASSERT_GT(server, 0);
  ASSERT_TRUE(wait_for_ping(sock)) << slurp(log);

  // 8 concurrent clients, same solve, JSON result to one file each.
  const std::string query = tool("mcr_query") + " --socket " + sock + " solve " +
                            graph + " --output json";
  std::string fanout = "for i in 0 1 2 3 4 5 6 7; do " + query + " > " +
                       (dir / "out.$i.json").string() + " 2>/dev/null & done; wait";
  ASSERT_EQ(run("bash -c '" + fanout + "'").exit_code, 0);

  const std::string first = slurp((dir / "out.0.json").string());
  ASSERT_NE(first.find("\"has_cycle\":true"), std::string::npos) << first;
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(slurp((dir / ("out." + std::to_string(i) + ".json")).string()), first)
        << "client " << i << " diverged";
  }

  // Exactly one underlying solve ran for the 8 requests.
  const auto stats =
      run(tool("mcr_query") + " --socket " + sock + " stats --prometheus=");
  ASSERT_EQ(stats.exit_code, 0) << stats.stdout_text;
  EXPECT_NE(stats.stdout_text.find("mcr_solves_total 1"), std::string::npos)
      << stats.stdout_text;

  // The result matches mcr_solve on the same instance: the schema is
  // shared and everything up to the trailing wall-time field is
  // byte-identical.
  const auto local = run(tool("mcr_solve") + " " + graph + " --output json | grep '^{'");
  ASSERT_EQ(local.exit_code, 0);
  const std::string cut = ",\"milliseconds\":";
  const std::string service_prefix = first.substr(0, first.find(cut));
  const std::string local_prefix =
      local.stdout_text.substr(0, local.stdout_text.find(cut));
  EXPECT_EQ(service_prefix, local_prefix);

  // SIGTERM with a request in flight: the request completes, the
  // server drains and exits 0.
  std::string bg = query + " > " + (dir / "inflight.json").string() +
                   " 2>/dev/null & sleep 0.05; kill -TERM " +
                   std::to_string(server) + "; wait $!";
  ASSERT_EQ(run("bash -c '" + bg + "'").exit_code, 0);
  int status = -1;
  ASSERT_EQ(::waitpid(server, &status, 0), server);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(slurp((dir / "inflight.json").string()), first);
  const std::string serve_log = slurp(log);
  EXPECT_NE(serve_log.find("draining"), std::string::npos) << serve_log;
  EXPECT_NE(serve_log.find("drained, exiting"), std::string::npos) << serve_log;
  fs::remove_all(dir);
}

// Workload observatory e2e: mcr_serve with the windowed-telemetry pump
// enabled, an open-loop mcr_load run against it, then a cross-check
// that the client-side exact percentiles agree with the server's
// windowed (bucket-interpolated) percentiles.
TEST(ToolsE2E, LoadHarnessAgreesWithServerWindowedPercentiles) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("mcr_e2e_load." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string sock = (dir / "mcr.sock").string();
  const std::string log = (dir / "serve.log").string();
  const std::string stats_path = (dir / "stats.jsonl").string();
  const std::string report_path = (dir / "load.json").string();

  // Window far larger than the run, so every observation is still
  // in-window when the final pump line is written at drain.
  const pid_t server = spawn_tool(
      {tool("mcr_serve"), "--socket", sock, "--window", "300",
       "--stats-interval", "0.4", "--stats-out", stats_path},
      log);
  ASSERT_GT(server, 0);
  ASSERT_TRUE(wait_for_ping(sock)) << slurp(log);

  // Open loop, all-cold SOLVEs on an instance big enough that real
  // solve work dominates transport overhead — otherwise the client
  // (round trip from intended send time) and the server (receipt to
  // response) measure different things and no tolerance is honest.
  // The offered rate is far below capacity so open-loop backlog stays
  // out of the picture even under sanitizer slowdown.
  const auto load = run(tool("mcr_load") + " --socket " + sock +
                        " --rps 60 --duration 3 --connections 4"
                        " --mix solve=100 --cold-pct 100 --graph-n 2048"
                        " --seed 7 --output " + report_path);
  ASSERT_EQ(load.exit_code, 0) << load.stdout_text;
  EXPECT_NE(load.stdout_text.find("0 transport errors"), std::string::npos)
      << load.stdout_text;

  // Drain the server so the pump writes its final line, then read both
  // sides' artifacts.
  ASSERT_EQ(::kill(server, SIGTERM), 0);
  int status = -1;
  ASSERT_EQ(::waitpid(server, &status, 0), server);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const mcr::json::Value report = mcr::json::parse(slurp(report_path));
  EXPECT_EQ(report.number_or("schema_version", 0.0), 1.0);
  EXPECT_EQ(report.string_or("mode", ""), "open");
  const double completed = report.number_or("completed", 0.0);
  EXPECT_GE(completed, 50.0);
  EXPECT_EQ(report.number_or("transport_errors", -1.0), 0.0);
  EXPECT_GE(report.at("cache").number_or("misses", 0.0), completed);
  const mcr::json::Value& lat = report.at("latency_ms");
  ASSERT_TRUE(lat.at("p50").is_number());
  ASSERT_TRUE(lat.at("p95").is_number());

  std::ifstream in(stats_path);
  ASSERT_TRUE(in.is_open());
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last = line;
    ++lines;
  }
  EXPECT_GE(lines, 2u);  // ~3 s run at 0.4 s interval plus the drain line
  const mcr::json::Value snap = mcr::json::parse(last);
  const mcr::json::Value& verbs = snap.at("window").at("verbs");
  ASSERT_TRUE(verbs.has("SOLVE")) << last;
  EXPECT_GE(verbs.at("SOLVE").number_or("count", 0.0), completed);

  // Cross-check: exact client percentiles vs bucket-interpolated server
  // percentiles. The service histogram is log-spaced 3 buckets/decade,
  // so interpolation may be off by up to one bucket factor
  // 10^(1/3) ≈ 2.154; allow a little slack on top for transport.
  for (const char* q : {"p50", "p95"}) {
    const double client_ms = lat.at(q).as_double();
    const double server_ms =
        verbs.at("SOLVE").number_or(std::string(q) + "_ms", -1.0);
    ASSERT_GT(server_ms, 0.0) << q << " in " << last;
    EXPECT_LT(client_ms / server_ms, 2.6) << q;
    EXPECT_GT(client_ms / server_ms, 1.0 / 2.6) << q;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Flag tables: every tool rejects flags it does not declare.

int exit_status(int system_rc) {
  return WIFEXITED(system_rc) ? WEXITSTATUS(system_rc) : -1;
}

TEST(ToolsE2E, BenchRejectsUnknownFlagsWithoutRunningTheGrid) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("mcr_e2e_flags." + std::to_string(::getpid()));
  fs::create_directories(dir);
  // Both used to run the full default grid and write BENCH_sprand.json.
  for (const char* args : {" --output X.json", " --help"}) {
    const auto out = run("cd " + dir.string() + " && " + tool("mcr_bench") + args);
    EXPECT_EQ(exit_status(out.exit_code), 2) << args << ": " << out.stdout_text;
    EXPECT_NE(out.stdout_text.find("unknown option"), std::string::npos) << out.stdout_text;
    EXPECT_NE(out.stdout_text.find("usage: mcr_bench"), std::string::npos)
        << out.stdout_text;
  }
  EXPECT_TRUE(fs::is_empty(dir)) << "a grid ran and wrote an artifact";
  fs::remove_all(dir);
}

TEST(ToolsE2E, EveryToolRejectsAnUnknownFlagWithItsUsage) {
  for (const char* name : {"mcr_solve", "mcr_gen", "mcr_fuzz", "mcr_bench",
                           "mcr_bench_diff", "mcr_pack", "mcr_serve", "mcr_router",
                           "mcr_query", "mcr_load", "mcr_chaos"}) {
    const auto out = run(tool(name) + " --no-such-flag 1");
    EXPECT_EQ(exit_status(out.exit_code), 2) << name << ": " << out.stdout_text;
    EXPECT_NE(out.stdout_text.find("--no-such-flag"), std::string::npos)
        << name << ": " << out.stdout_text;
    EXPECT_NE(out.stdout_text.find(std::string("usage: ") + name), std::string::npos)
        << name << ": " << out.stdout_text;
  }
}

// The flags the repository benchmark starts its daemons with must stay
// accepted: a worker on a dataset with an access log, and a router with
// replicas over it. Both drain on SIGTERM and remove their sockets.
TEST(ToolsE2E, BenchmarkDaemonFlagsStayAccepted) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("mcr_e2e_pbflags." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string pack = (dir / "g.mcrpack").string();
  const std::string wsock = (dir / "w.sock").string();
  const std::string rsock = (dir / "r.sock").string();
  ASSERT_EQ(run(tool("mcr_pack") + " gen ring --n 16 --seed 2 --out " + pack).exit_code,
            0);
  const pid_t worker = spawn_tool({tool("mcr_serve"), "--socket", wsock, "--threads", "2",
                                   "--flight-dump", "none", "--dataset", pack,
                                   "--log-json", (dir / "w.jsonl").string()},
                                  (dir / "w.log").string());
  ASSERT_GT(worker, 0);
  ASSERT_TRUE(wait_for_ping(wsock)) << slurp((dir / "w.log").string());
  const pid_t router = spawn_tool({tool("mcr_router"), "--socket", rsock, "--replicas",
                                   "2", "--worker", "unix:" + wsock},
                                  (dir / "r.log").string());
  ASSERT_GT(router, 0);
  EXPECT_TRUE(wait_for_ping(rsock)) << slurp((dir / "r.log").string());
  for (const pid_t pid : {router, worker}) {
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = -1;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  EXPECT_FALSE(fs::exists(wsock));
  EXPECT_FALSE(fs::exists(rsock));
  fs::remove_all(dir);
}

// mcr_serve arms its SIGTERM handler before the listener binds, so a
// supervisor's signal during a slow startup still drains the daemon and
// removes the socket file instead of killing it mid-start.
TEST(ToolsE2E, ServeArmsSignalHandlersBeforeBinding) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("mcr_e2e_early." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string graph = (dir / "big.dimacs").string();
  const std::string sock = (dir / "mcr.sock").string();
  // Preloading this takes long enough to observe the armed-but-unbound
  // window (~0.1 s).
  ASSERT_EQ(run(tool("mcr_gen") + " sprand --n 100000 --m 300000 --seed 2 --out " + graph)
                .exit_code,
            0);
  const pid_t server =
      spawn_tool({tool("mcr_serve"), "--socket", sock, "--flight-dump", "none",
                  "--preload", graph},
                 (dir / "serve.log").string());
  ASSERT_GT(server, 0);
  const auto catches_sigterm = [&] {
    std::ifstream in("/proc/" + std::to_string(server) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("SigCgt:", 0) == 0) {
        return ((std::stoull(line.substr(7), nullptr, 16) >> (SIGTERM - 1)) & 1) != 0;
      }
    }
    return false;
  };
  for (int i = 0; i < 10000 && !catches_sigterm(); ++i) ::usleep(1000);
  ASSERT_TRUE(catches_sigterm());
  EXPECT_FALSE(fs::exists(sock)) << "SIGTERM handler armed only after the bind";
  ASSERT_EQ(::kill(server, SIGTERM), 0);
  int status = -1;
  ASSERT_EQ(::waitpid(server, &status, 0), server);
  ASSERT_TRUE(WIFEXITED(status)) << slurp((dir / "serve.log").string());
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(fs::exists(sock));
  fs::remove_all(dir);
}

}  // namespace
