// mcr_query — command-line client for the mcr solve service.
//
//   mcr_query --socket PATH|--tcp PORT <verb> [args]
//
//   verbs:
//     ping                          liveness check
//     load <file.dimacs>            load a graph, print its fingerprint
//     solve <file.dimacs|fp:HEX>    solve (loads the file first when
//                                   given a path) and print the result
//       [--algo NAME] [--ratio] [--max] [--deadline-ms N]
//       [--output json]             print the shared result schema
//                                   (identical bytes for identical
//                                   cached results; cache status goes
//                                   to stderr)
//     solvers                       list the server's registered solvers
//     stats [--prometheus] [--json] server metrics: per-verb latency
//                                   summary table (p50/p95/p99 from the
//                                   histogram buckets) by default, the
//                                   raw JSON with --json, Prometheus
//                                   text with --prometheus
//     top [--interval S] [--count N] refreshing live view: windowed
//                                   per-verb p50/p95/p99 + rps from
//                                   STATS {"window":true}, saturation
//                                   gauges, cache hit ratio per refresh
//                                   (N frames then exit; 0 = forever)
//     health                        liveness + queue depth + last-solve age
//     reload [--path FILE.mcrpack]  hot-swap the server's dataset (no
//                                   --path re-attaches the current one);
//                                   prints the new fingerprint/generation
//     trace [--trace-id H] [--verb V] [--min-ms N] [--limit N] [--out FILE]
//                                   fetch recent/pinned request traces
//                                   from the flight recorder as
//                                   Perfetto-loadable Chrome JSON
//                                   (stdout or --out FILE; summary on
//                                   stderr)
//     raw '<json>'                  send one raw request payload
//
//   solve also accepts --trace-id H to propagate a caller-chosen trace
//   id; every response's trace_id is echoed on stderr so the request's
//   trace can be fetched back with `trace --trace-id`.
//
//   --retry    retry transient failures (BUSY / DEADLINE_EXCEEDED /
//              SHUTTING_DOWN and transport errors) with exponential
//              backoff before giving up; safe, SOLVE is idempotent
//   --version  print build provenance and exit
//   --help     print the verb and exit-code reference
//
// Exit codes (scriptable: each transient failure mode is distinct):
//   0  ok
//   1  server-side error not listed below (e.g. BAD_REQUEST, INTERNAL)
//   2  usage error
//   3  transport failure (cannot connect / connection lost)
//   4  BUSY              server at admission capacity; retry later
//   5  DEADLINE_EXCEEDED the request's deadline elapsed
//   6  NOT_FOUND         fingerprint not resident (LOAD it again)
//   7  SHUTTING_DOWN     server is draining; retry against its successor
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "obs/build_info.h"
#include "obs/windowed.h"
#include "support/json.h"
#include "svc/client.h"
#include "svc/errors.h"

namespace {

using namespace mcr;

constexpr const char* kHelpText =
    R"(usage: mcr_query --socket PATH|--tcp PORT <verb> [args]

verbs:
  ping                        liveness check
  load <file.dimacs>          load a graph, print its fingerprint
  solve <file.dimacs|fp:HEX>  solve and print the result
    [--algo NAME] [--ratio] [--max] [--deadline-ms N] [--output json]
    [--trace-id H]
  solvers                     list the server's registered solvers
  stats [--prometheus|--json] server metrics (default: latency table)
  top [--interval S] [--count N]
                              refreshing live view (windowed percentiles,
                              rps, saturation gauges, cache hit ratio)
  health [--json]             liveness + queue depth + last-solve age
                              (human summary by default; exit 8 = degraded)
  reload [--path FILE]        hot-swap the server's dataset (.mcrpack)
  trace [--trace-id H] [--verb V] [--min-ms N] [--limit N] [--out FILE]
                              fetch request traces (Chrome JSON)
  raw '<json>'                send one raw request payload

flags:
  --retry     retry transient failures (exponential backoff + jitter)
  --version   print build provenance and exit
  --help      this text

exit codes:
  0  ok
  1  other server-side error (BAD_REQUEST, INTERNAL, ...)
  2  usage error
  3  transport failure (cannot connect / connection lost)
  4  BUSY               server at admission capacity; retry later
  5  DEADLINE_EXCEEDED  the request's deadline elapsed
  6  NOT_FOUND          fingerprint not resident (LOAD it again)
  7  SHUTTING_DOWN      server is draining
  8  degraded           health: reachable but draining / unhealthy /
                        queue at capacity (vs 3 = unreachable)
)";

constexpr const char* kUsage =
    "usage: mcr_query --socket PATH|--tcp PORT "
    "<ping|load|solve|solvers|stats|top|health|reload|trace|raw> "
    "[args] (--help for the exit-code table)\n";

/// The scriptable exit-code contract: transient, retryable conditions
/// get their own codes so shell callers can branch without parsing
/// stderr (documented in --help and docs/ROBUSTNESS.md).
int exit_code_for(const std::string& code) {
  if (code == "BUSY") return 4;
  if (code == "DEADLINE_EXCEEDED") return 5;
  if (code == "NOT_FOUND") return 6;
  if (code == "SHUTTING_DOWN") return 7;
  return 1;
}

svc::Client connect(const cli::Options& opt) {
  if (opt.has("socket")) return svc::Client::connect_unix(opt.get("socket"));
  if (opt.has("tcp")) {
    return svc::Client::connect_tcp(
        static_cast<int>(opt.get_int_in("tcp", 0, 1, 65535)));
  }
  throw std::invalid_argument("no server address (--socket PATH or --tcp PORT)");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Prints a response's error (if any) and maps it to an exit code.
int finish(const json::Value& response) {
  if (response.string_or("status", "") == "ok") return 0;
  const std::string code = response.string_or("code", "ERROR");
  std::cerr << "mcr_query: " << code << ": "
            << response.string_or("message", "(no message)") << "\n";
  return exit_code_for(code);
}

/// Renders a HEALTH response. `--json` keeps the raw payload for
/// scripts; the default is a human summary where the -1.0
/// last_solve_age_seconds sentinel reads as "never". Exit code 8 means
/// *degraded*: the endpoint answered, but it is draining, unhealthy,
/// or its solve queue is at capacity — distinct from 3 (unreachable)
/// so probes can branch on "restart it" vs "stop sending it traffic".
int do_health(const json::Value& r, const std::string& raw, bool as_json) {
  const bool healthy = r.has("healthy") && r.at("healthy").as_bool();
  const bool draining = r.has("draining") && r.at("draining").as_bool();
  const double depth = r.number_or("queue_depth", 0.0);
  const double capacity = r.number_or("queue_capacity", 0.0);
  const bool saturated = capacity > 0.0 && depth >= capacity;
  const bool degraded = !healthy || draining || saturated;
  if (as_json) {
    std::cout << raw << "\n";
    return degraded ? 8 : 0;
  }
  std::ostringstream out;
  out << (degraded ? "degraded" : "healthy");
  if (!healthy) out << " (healthy=false)";
  if (draining) out << " (draining)";
  if (saturated) out << " (queue at capacity)";
  out << "\n";
  if (r.has("service")) out << "  service:    " << r.at("service").as_string() << "\n";
  if (r.has("backends_total")) {
    // Router-tier HEALTH: fleet shape instead of a solve queue.
    out << "  backends:   " << r.number_or("backends_up", 0.0) << "/"
        << r.at("backends_total").as_double() << " up";
    if (const double d = r.number_or("backends_draining", 0.0); d > 0.0) {
      out << ", " << d << " draining";
    }
    out << "\n";
  }
  if (r.has("queue_depth")) {
    out << "  queue:      " << depth << "/" << capacity << " (in flight "
        << r.number_or("in_flight", 0.0) << ")\n";
  }
  if (r.has("connections")) {
    out << "  clients:    " << r.at("connections").as_double() << "\n";
  }
  if (r.has("uptime_seconds")) {
    out << "  uptime:     " << std::fixed << std::setprecision(1)
        << r.at("uptime_seconds").as_double() << "s\n";
  }
  if (r.has("last_solve_age_seconds")) {
    const double age = r.at("last_solve_age_seconds").as_double();
    out << "  last solve: ";
    if (age < 0.0) {
      out << "never\n";  // the -1 sentinel: no solve since startup
    } else {
      out << std::fixed << std::setprecision(1) << age << "s ago\n";
    }
  }
  std::cout << out.str();
  return degraded ? 8 : 0;
}

int do_solve(svc::Client& client, const cli::Options& opt) {
  if (opt.positional.size() != 2) {
    throw std::invalid_argument("solve needs <file.dimacs|fp:HEX>");
  }
  const std::string& target = opt.positional[1];
  std::string fingerprint;
  if (target.rfind("fp:", 0) == 0) {
    fingerprint = target.substr(3);
  } else {
    fingerprint = client.load_dimacs_text(read_file(target));
  }
  const bool ratio = opt.has("ratio");
  const std::string objective = std::string(opt.has("max") ? "max" : "min") + "_" +
                                (ratio ? "ratio" : "mean");
  std::string payload = R"({"verb":"SOLVE","fingerprint":")" + fingerprint +
                        R"(","objective":")" + objective + "\"";
  if (opt.has("algo")) {
    payload += R"(,"algo":")" + svc::json_escape(opt.get("algo")) + "\"";
  }
  if (const double deadline = opt.get_double("deadline-ms", 0.0); deadline > 0.0) {
    payload += ",\"deadline_ms\":" + std::to_string(deadline);
  }
  payload += "}";

  std::string raw;
  if (opt.has("retry")) {
    // request_retry throws typed errors; main maps them to exit codes.
    // The parsed value is discarded here because the json printer below
    // wants the exact response bytes.
    (void)client.request_retry(payload);
    raw = client.request_raw(payload);  // cache hit: instant, byte-stable
  } else {
    raw = client.request_raw(payload);
  }
  const json::Value r = json::parse(raw);
  if (const int rc = finish(r); rc != 0) return rc;

  const json::Value& result = r.at("result");
  const bool cached = r.at("cached").as_bool();
  std::cerr << (cached ? "(cached)" : "(solved)") << " trace_id="
            << r.string_or("trace_id", "?") << "\n";
  if (opt.get("output") == "json") {
    // The response embeds the shared result schema as its final field;
    // print exactly those bytes so responses for the same cache key are
    // byte-identical regardless of which client asked first.
    const std::size_t pos = raw.find("\"result\":");
    if (pos == std::string::npos || raw.back() != '}') {
      std::cerr << "mcr_query: malformed response\n";
      return 3;
    }
    const std::size_t begin = pos + 9;
    std::cout << raw.substr(begin, raw.size() - 1 - begin) << "\n";
    return 0;
  }
  if (!result.at("has_cycle").as_bool()) {
    std::cout << "graph is acyclic (no cycle " << (ratio ? "ratio" : "mean")
              << ")\n";
    return 0;
  }
  std::cout << result.at("algorithm").as_string() << ": " << objective << " = "
            << static_cast<std::int64_t>(result.at("value_num").as_double()) << "/"
            << static_cast<std::int64_t>(result.at("value_den").as_double()) << " ("
            << result.at("value").as_double() << "), cycle length "
            << static_cast<std::int64_t>(result.at("cycle_length").as_double())
            << ", " << result.at("milliseconds").as_double() << " ms\n";
  return 0;
}

/// One histogram's cumulative buckets, decoded from the stats JSON.
struct BucketSet {
  std::vector<double> bounds;           // finite upper bounds, seconds
  std::vector<std::uint64_t> cumulative;  // same length + 1 (+Inf last)
  std::vector<std::string> exemplars;     // per bucket; "" = none
  std::uint64_t total = 0;
};

BucketSet decode_buckets(const json::Value& hist) {
  BucketSet bs;
  for (const json::Value& b : hist.at("buckets").as_array()) {
    const json::Value& le = b.at("le");
    if (le.is_number()) bs.bounds.push_back(le.as_double());
    bs.cumulative.push_back(
        static_cast<std::uint64_t>(b.at("count").as_double()));
    bs.exemplars.push_back(
        b.has("exemplar") ? b.at("exemplar").string_or("label", "") : "");
  }
  bs.total = static_cast<std::uint64_t>(hist.at("count").as_double());
  return bs;
}

/// Quantile over a decoded bucket set, via the shared guarded
/// interpolation (obs::histogram_quantile): nullopt — printed as "-" —
/// for an empty histogram or one with no finite bounds, instead of a
/// NaN or a fabricated 0.
std::optional<double> bucket_quantile(const BucketSet& bs, double q) {
  return obs::histogram_quantile(bs.bounds, bs.cumulative, bs.total, q);
}

/// The exemplar nearest the q-th-quantile bucket (searching upward
/// first — the slow outlier is what you want a trace of).
std::string quantile_exemplar(const BucketSet& bs, double q) {
  if (bs.total == 0) return "";
  const double rank = q * static_cast<double>(bs.total);
  std::size_t at = bs.cumulative.empty() ? 0 : bs.cumulative.size() - 1;
  for (std::size_t i = 0; i < bs.cumulative.size(); ++i) {
    if (static_cast<double>(bs.cumulative[i]) >= rank) {
      at = i;
      break;
    }
  }
  for (std::size_t i = at; i < bs.exemplars.size(); ++i) {
    if (!bs.exemplars[i].empty()) return bs.exemplars[i];
  }
  for (std::size_t i = at; i-- > 0;) {
    if (!bs.exemplars[i].empty()) return bs.exemplars[i];
  }
  return "";
}

std::string fmt_ms(double seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(seconds * 1000.0 < 10.0 ? 3 : 1);
  os << seconds * 1000.0;
  return os.str();
}

/// "-" when the quantile is undefined (empty family).
std::string fmt_ms_opt(const std::optional<double>& seconds) {
  return seconds.has_value() ? fmt_ms(*seconds) : "-";
}

/// A windowed percentile field ("p50_ms" etc): already in ms, null when
/// the verb has no observations in the window.
std::string fmt_window_ms(const json::Value& row, const std::string& key) {
  if (!row.has(key) || !row.at(key).is_number()) return "-";
  std::ostringstream os;
  os.setf(std::ios::fixed);
  const double ms = row.at(key).as_double();
  os.precision(ms < 10.0 ? 3 : 1);
  os << ms;
  return os.str();
}

/// Human stats view: one latency row per verb (plus the aggregate),
/// quantiles interpolated from the mcr_request_seconds histograms.
int print_stats_table(const json::Value& r) {
  const json::Value& hists = r.at("metrics").at("histograms");
  const std::string base = "mcr_request_seconds";
  struct Row {
    std::string label;
    BucketSet buckets;
  };
  std::vector<Row> rows;
  for (const auto& [name, hist] : hists.as_object()) {
    if (name == base) {
      rows.push_back({"(all)", decode_buckets(hist)});
    } else if (name.rfind(base + "{verb=\"", 0) == 0) {
      std::string verb = name.substr(base.size() + 7);
      if (const auto quote = verb.find('"'); quote != std::string::npos) {
        verb.resize(quote);
      }
      rows.push_back({verb, decode_buckets(hist)});
    }
  }
  if (rows.empty()) {
    std::cout << "no request latency data yet (mcr_request_seconds is empty); "
                 "--json for raw metrics\n";
    return 0;
  }
  std::cout << "request latency (ms, interpolated from histogram buckets)\n";
  std::cout << "  verb       count      p50      p95      p99  p99 trace\n";
  for (const Row& row : rows) {
    const std::string p99_trace = quantile_exemplar(row.buckets, 0.99);
    std::ostringstream line;
    line << "  " << row.label;
    for (std::size_t pad = row.label.size(); pad < 8; ++pad) line << ' ';
    line.setf(std::ios::right);
    line << std::setw(9) << row.buckets.total;
    for (const double q : {0.50, 0.95, 0.99}) {
      line << std::setw(9) << fmt_ms_opt(bucket_quantile(row.buckets, q));
    }
    line << "  " << (p99_trace.empty() ? "-" : p99_trace);
    std::cout << line.str() << "\n";
  }
  const json::Value& gauges = r.at("metrics").at("gauges");
  const double resident = gauges.number_or("mcr_graphs_resident", 0.0);
  const double builder_b =
      gauges.number_or("mcr_graph_bytes{backing=\"builder\"}", 0.0);
  const double mmap_b = gauges.number_or("mcr_graph_bytes{backing=\"mmap\"}", 0.0);
  std::ostringstream mem;
  mem.setf(std::ios::fixed);
  mem.precision(1);
  mem << "resident graphs: " << static_cast<std::int64_t>(resident) << " ("
      << builder_b / (1024.0 * 1024.0) << " MiB builder, " << mmap_b / (1024.0 * 1024.0)
      << " MiB mmap)";
  std::cout << mem.str() << "\n";
  std::cout << "(fetch a trace: mcr_query ... trace --trace-id ID; "
               "--json for raw metrics)\n";
  return 0;
}

/// `top` — refreshing live view over STATS {"window":true}: windowed
/// per-verb p50/p95/p99 and rps, saturation gauges, and the cache hit
/// ratio over the refresh interval. Clears the screen only on a tty, so
/// piped output (and the e2e tests) get plain appended frames.
int do_top(svc::Client& client, const cli::Options& opt) {
  const double interval_s = opt.get_double("interval", 2.0);
  if (interval_s <= 0.0) {
    std::cerr << "mcr_query: top --interval must be positive\n";
    return 2;
  }
  const std::int64_t frames = opt.get_int_in("count", 0, 0, 1 << 30);
  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  std::uint64_t prev_hits = 0;
  std::uint64_t prev_misses = 0;
  bool have_prev = false;
  for (std::int64_t frame = 0; frames == 0 || frame < frames; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
    const json::Value r = client.stats(/*window=*/true);
    if (const int rc = finish(r); rc != 0) return rc;
    const json::Value& window = r.at("window");
    const json::Value& metrics = r.at("metrics");
    const json::Value& gauges = metrics.at("gauges");
    const json::Value& counters = metrics.at("counters");
    const auto gauge = [&](const char* name) {
      return static_cast<std::int64_t>(gauges.number_or(name, 0.0));
    };
    const auto hits = static_cast<std::uint64_t>(
        counters.number_or("mcr_cache_hits_total", 0.0));
    const auto misses = static_cast<std::uint64_t>(
        counters.number_or("mcr_cache_misses_total", 0.0));
    const std::uint64_t dh = have_prev ? hits - prev_hits : hits;
    const std::uint64_t dm = have_prev ? misses - prev_misses : misses;
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(1);
    out << "mcr top — uptime " << r.number_or("uptime_seconds", 0.0)
        << " s, window " << window.number_or("window_seconds", 0.0)
        << " s (covered " << window.number_or("covered_seconds", 0.0)
        << " s)\n";
    out << "  queue " << gauge("mcr_queue_depth") << " (hwm "
        << gauge("mcr_queue_depth_highwater") << ")  in-flight "
        << gauge("mcr_in_flight") << "  connections "
        << gauge("mcr_active_connections") << "  batch "
        << gauge("mcr_batch_occupancy") << "%\n";
    out << "  graphs " << gauge("mcr_graphs_resident") << " ("
        << gauges.number_or("mcr_graph_bytes{backing=\"builder\"}", 0.0) /
               (1024.0 * 1024.0)
        << " MiB builder, "
        << gauges.number_or("mcr_graph_bytes{backing=\"mmap\"}", 0.0) /
               (1024.0 * 1024.0)
        << " MiB mmap)";
    if (const std::int64_t gen = gauge("mcr_dataset_generation"); gen > 0) {
      out << "  dataset generation " << gen;
    }
    out << "\n";
    out << "  cache hit ratio: ";
    if (dh + dm == 0) {
      out << "-";
    } else {
      out << 100.0 * static_cast<double>(dh) / static_cast<double>(dh + dm)
          << "%";
    }
    out << (have_prev ? " (interval)\n" : " (lifetime)\n");
    out << "\n  verb       count      rps      p50      p95      p99\n";
    for (const auto& [verb, row] : window.at("verbs").as_object()) {
      out << "  " << verb;
      for (std::size_t pad = verb.size(); pad < 8; ++pad) out << ' ';
      out << std::setw(9)
          << static_cast<std::int64_t>(row.number_or("count", 0.0))
          << std::setw(9) << row.number_or("rps", 0.0);
      out.unsetf(std::ios::fixed);
      for (const char* key : {"p50_ms", "p95_ms", "p99_ms"}) {
        out << std::setw(9) << fmt_window_ms(row, key);
      }
      out.setf(std::ios::fixed);
      out << "\n";
    }
    if (tty) std::cout << "\033[H\033[2J";
    std::cout << out.str() << std::flush;
    prev_hits = hits;
    prev_misses = misses;
    have_prev = true;
  }
  return 0;
}

int do_trace(svc::Client& client, const cli::Options& opt) {
  std::string payload = R"({"verb":"TRACE")";
  if (opt.has("trace-id")) {
    payload += R"(,"id":")" + svc::json_escape(opt.get("trace-id")) + "\"";
  }
  if (opt.has("verb")) {
    payload += R"(,"match_verb":")" + svc::json_escape(opt.get("verb")) + "\"";
  }
  if (const double min_ms = opt.get_double("min-ms", -1.0); min_ms >= 0.0) {
    payload += ",\"min_ms\":" + std::to_string(min_ms);
  }
  payload += ",\"limit\":" + std::to_string(opt.get_int_in("limit", 32, 0, 1 << 20));
  payload += "}";
  const std::string raw = client.request_raw(payload);
  const json::Value r = json::parse(raw);
  if (const int rc = finish(r); rc != 0) return rc;
  // chrome_trace is the response's final field; cut its exact bytes.
  const std::size_t pos = raw.find("\"chrome_trace\":");
  if (pos == std::string::npos || raw.back() != '}') {
    std::cerr << "mcr_query: malformed TRACE response\n";
    return 3;
  }
  const std::size_t begin = pos + 15;
  const std::string chrome = raw.substr(begin, raw.size() - 1 - begin);
  std::cerr << "traces matched: "
            << static_cast<std::int64_t>(r.number_or("count", 0)) << " (ring "
            << static_cast<std::int64_t>(r.number_or("ring_size", 0))
            << ", pinned "
            << static_cast<std::int64_t>(r.number_or("pinned_size", 0))
            << ", finished "
            << static_cast<std::int64_t>(r.number_or("finished_total", 0))
            << ", evicted "
            << static_cast<std::int64_t>(r.number_or("evicted_total", 0))
            << ")\n";
  if (opt.has("out")) {
    std::ofstream out(opt.get("out"));
    if (!out) {
      std::cerr << "mcr_query: cannot write " << opt.get("out") << "\n";
      return 2;
    }
    out << chrome << "\n";
    std::cerr << "wrote " << opt.get("out") << "\n";
  } else {
    std::cout << chrome << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  cli::Options opt;
  try {
    opt = cli::parse(argc, argv,
                     {"socket", "tcp", "retry", "version", "help", "algo", "ratio", "max",
                      "deadline-ms", "output", "trace-id", "prometheus", "json",
                      "interval", "count", "path", "verb", "min-ms", "limit", "out"});
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_query");
      return 0;
    }
    if (opt.has("help")) {
      std::cout << kHelpText;
      return 0;
    }
    if (opt.positional.empty()) {
      std::cerr << kUsage;
      return 2;
    }
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_query: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_query: " << e.what() << "\n";
    return 2;
  }
  try {
    svc::Client client = connect(opt);
    if (opt.has("retry")) {
      client.set_retry_policy(svc::RetryPolicy{});
    }
    const std::string& verb = opt.positional[0];
    // Sticky trace id for request verbs; the `trace` verb reuses the
    // same flag as its *filter*, so leave the client unset there.
    if (opt.has("trace-id") && verb != "trace") {
      client.set_trace_id(opt.get("trace-id"));
    }
    if (verb == "trace") return do_trace(client, opt);
    if (verb == "health") {
      const std::string raw = client.request_raw(R"({"verb":"HEALTH"})");
      const json::Value r = json::parse(raw);
      if (const int rc = finish(r); rc != 0) return rc;
      return do_health(r, raw, opt.has("json"));
    }
    if (verb == "ping") {
      if (!client.ping()) {
        std::cerr << "mcr_query: ping failed\n";
        return 1;
      }
      std::cout << "ok\n";
      return 0;
    }
    if (verb == "load") {
      if (opt.positional.size() != 2) {
        std::cerr << "mcr_query: load needs <file.dimacs>\n";
        return 2;
      }
      const json::Value r = client.request(
          R"({"verb":"LOAD","dimacs":")" +
          svc::json_escape(read_file(opt.positional[1])) + "\"}");
      if (const int rc = finish(r); rc != 0) return rc;
      std::cout << r.at("fingerprint").as_string() << "\n";
      return 0;
    }
    if (verb == "solve") return do_solve(client, opt);
    if (verb == "solvers") {
      const json::Value r = client.request(R"({"verb":"SOLVERS"})");
      if (const int rc = finish(r); rc != 0) return rc;
      for (const json::Value& s : r.at("solvers").as_array()) {
        std::cout << s.at("name").as_string() << "  ("
                  << s.at("kind").as_string() << ", "
                  << s.at("bound").as_string() << ")\n";
      }
      return 0;
    }
    if (verb == "stats") {
      const std::string raw = client.request_raw(R"({"verb":"STATS"})");
      const json::Value r = json::parse(raw);
      if (const int rc = finish(r); rc != 0) return rc;
      if (opt.has("prometheus")) {
        std::cout << r.at("prometheus").as_string();
        return 0;
      }
      if (opt.has("json")) {
        std::cout << raw << "\n";
        return 0;
      }
      return print_stats_table(r);
    }
    if (verb == "top") return do_top(client, opt);
    if (verb == "reload") {
      const json::Value r = client.reload(opt.get("path"));
      if (const int rc = finish(r); rc != 0) return rc;
      std::cout << r.at("fingerprint").as_string() << "\n";
      std::cerr << "reloaded " << r.string_or("path", "?") << " (generation "
                << static_cast<std::int64_t>(r.number_or("generation", 0)) << ", "
                << static_cast<std::int64_t>(r.number_or("nodes", 0)) << " nodes, "
                << static_cast<std::int64_t>(r.number_or("arcs", 0)) << " arcs)\n";
      return 0;
    }
    if (verb == "raw") {
      if (opt.positional.size() != 2) {
        std::cerr << "mcr_query: raw needs one JSON payload argument\n";
        return 2;
      }
      std::cout << client.request_raw(opt.positional[1]) << "\n";
      return 0;
    }
    std::cerr << "mcr_query: unknown verb '" << verb << "'\n";
    return 2;
  } catch (const svc::ServiceError& e) {
    // Typed server error thrown by the retry path after its budget ran
    // out (or immediately for non-retryable codes).
    std::cerr << "mcr_query: " << e.what() << "\n";
    return exit_code_for(e.code());
  } catch (const std::invalid_argument& e) {
    std::cerr << "mcr_query: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_query: " << e.what() << "\n";
    return 3;
  }
}
