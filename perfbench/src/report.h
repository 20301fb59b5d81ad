// Run report and benchmark-side tracing.
//
// Report collects the metrics of one run, the facts behind them (sample
// counts, provenance, validity) and the pass/fail tally, and prints the
// final one-line JSON verdict. Tracer records spans the benchmark opens
// around each public call it makes, plus spans imported from the
// program's own hooks, and writes them as one Perfetto JSON file.
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "manifest.h"
#include "stats.h"

namespace mcr::obs {
class TraceRecorder;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0, Clock::time_point t1 = Clock::now());

/// Shortest round-trip text of a double ("null" when not finite).
[[nodiscard]] std::string json_number(double v);

class Report {
 public:
  Report(std::string workload, std::uint64_t seed, bool trace);

  /// One reported metric; `samples` (0 = a count, not a sampled timing)
  /// is echoed in the details line.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// A metric this run cannot produce, with the reason.
  void absent(const std::string& name, const std::string& reason);
  /// A fact recorded in the details line; `json` must be valid JSON.
  void note(const std::string& key, std::string json);
  /// Marks the run invalid; its numbers are then withheld.
  void invalid(const std::string& reason);

  Tally tally;

  /// Matches the reported metrics against `required`: a metric the
  /// workload (`bit`) does not measure reads 0 and is listed as not
  /// exercised; one it measures but did not report, one in another unit
  /// and one outside the list are problems, returned and marking the run
  /// invalid.
  std::vector<std::string> complete(std::span<const MetricSpec> required, unsigned bit);

  /// Completes the metrics against the manifest (end-to-end, or per-layer
  /// when tracing), prints the details line and, unless the run is
  /// invalid, the final verdict line. Returns the process exit code: 0
  /// valid and correct, 1 a wrong answer, 3 invalid.
  [[nodiscard]] int finish();

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::string workload_;
  std::uint64_t seed_;
  bool trace_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> absent_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> not_exercised_;
  std::vector<std::string> invalid_;
};

/// Benchmark-side span recorder. When disabled every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    const char* layer_;
    Clock::time_point start_;
  };

  /// A span timed elsewhere. `pid` groups tracks: 1 benchmark, 2
  /// in-process library, 3+ daemons.
  void complete(const std::string& name, const std::string& layer, Clock::time_point start,
                double dur_ms, int pid = 1, int tid = -1);
  /// Imports a driver TraceRecorder constructed at `recorder_t0`.
  void import(const mcr::obs::TraceRecorder& recorder, Clock::time_point recorder_t0);
  /// Names a pid track in the viewer.
  void name_process(int pid, const std::string& name);

  /// Writes every span as a Chrome trace_event JSON object.
  void write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string layer;
    char ph = 'X';
    double ts_us = 0.0;
    double dur_us = 0.0;
    int pid = 1;
    int tid = 0;
  };
  static int thread_index();
  [[nodiscard]] double us_of(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H
