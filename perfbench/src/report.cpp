#include "report.h"

#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "obs/build_info.h"
#include "obs/trace_recorder.h"

namespace perfbench {

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) throw std::runtime_error("json_number: to_chars failed");
  return std::string(buf, end);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  mcr::obs::json_escape(out, s);
  out += '"';
  return out;
}

}  // namespace

Report::Report(std::string workload, std::uint64_t seed, bool trace)
    : workload_(std::move(workload)), seed_(seed), trace_(trace) {}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  if (!std::isfinite(value)) {
    absent(name, "value is not finite (it falls on a failed request)");
    return;
  }
  metrics_[name] = Metric{value, unit, samples};
}

void Report::absent(const std::string& name, const std::string& reason) {
  absent_[name] = reason;
}

void Report::note(const std::string& key, std::string json) { notes_[key] = std::move(json); }

void Report::invalid(const std::string& reason) { invalid_.push_back(reason); }

/// Appends `"key":json` to an object body, comma-separated.
static void add_field(std::string& out, const std::string& key, const std::string& json) {
  if (out.back() != '{') out += ',';
  out += quoted(key);
  out += ':';
  out += json;
}

unsigned workload_bit(const std::string& workload) {
  if (workload == "solve_giant") return kSolveGiant;
  if (workload == "serve_warm") return kServeWarm;
  if (workload == "fleet_mixed") return kFleetMixed;
  return 0;
}

std::vector<std::string> Report::complete(std::span<const MetricSpec> required, unsigned bit) {
  std::vector<std::string> problems;
  std::set<std::string> listed;
  for (const MetricSpec& spec : required) {
    listed.insert(spec.name);
    const auto it = metrics_.find(spec.name);
    if (it != metrics_.end()) {
      if (it->second.unit != spec.unit) {
        problems.push_back(std::string(spec.name) + " is in " + it->second.unit + ", not " +
                           spec.unit);
      }
    } else if ((spec.measured_on & bit) == 0) {
      metrics_[spec.name] = Metric{0.0, spec.unit, 0};
      not_exercised_.emplace_back(spec.name);
    } else {
      const auto why = absent_.find(spec.name);
      problems.push_back(std::string(spec.name) + " is absent: " +
                         (why == absent_.end() ? "not measured" : why->second));
    }
  }
  for (const auto& [name, m] : metrics_) {
    if (!listed.count(name)) problems.push_back(name + " is not in the manifest");
  }
  for (const std::string& p : problems) invalid(p);
  return problems;
}

int Report::finish() {
  if (trace_) {
    (void)complete(kPerLayer, workload_bit(workload_));
  } else {
    (void)complete(kEndToEnd, workload_bit(workload_));
  }
  const bool correct = tally.wrong == 0;
  std::string reasons = "[";
  for (const std::string& r : invalid_) {
    if (reasons.size() > 1) reasons += ',';
    reasons += quoted(r);
  }
  reasons += ']';
  std::string samples = "{";
  std::string values = "{";
  for (const auto& [name, m] : metrics_) {
    if (m.samples != 0) add_field(samples, name, std::to_string(m.samples));
    add_field(values, name,
              "{\"value\":" + json_number(m.value) + ",\"unit\":" + quoted(m.unit) + "}");
  }
  std::string absent = "{";
  for (const auto& [name, reason] : absent_) add_field(absent, name, quoted(reason));
  std::string not_exercised = "[";
  for (const std::string& name : not_exercised_) {
    if (not_exercised.size() > 1) not_exercised += ',';
    not_exercised += quoted(name);
  }

  std::string details = "{";
  add_field(details, "workload", quoted(workload_));
  add_field(details, "seed", std::to_string(seed_));
  add_field(details, "trace", trace_ ? "true" : "false");
  add_field(details, "nproc", std::to_string(std::thread::hardware_concurrency()));
  add_field(details, "build", mcr::obs::build_info_json());
  add_field(details, "valid", invalid_.empty() ? "true" : "false");
  add_field(details, "invalid_reasons", reasons);
  add_field(details, "correct", correct ? "true" : "false");
  add_field(details, "wrong_answers", std::to_string(tally.wrong));
  add_field(details, "samples", samples + "}");
  add_field(details, "absent", absent + "}");
  add_field(details, "not_exercised", not_exercised + "]");
  for (const auto& [key, json] : notes_) add_field(details, key, json);
  std::cout << "{\"perfbench\":" << details << "}}\n";

  if (!invalid_.empty()) {
    std::cerr << "perfbench: INVALID RUN, numbers withheld:\n";
    for (const std::string& r : invalid_) std::cerr << "  - " << r << "\n";
    std::cout.flush();
    return 3;
  }
  std::string verdict = "{";
  add_field(verdict, "correct", correct ? "true" : "false");
  add_field(verdict, "attempted", std::to_string(tally.attempted));
  add_field(verdict, "failed", std::to_string(tally.failed));
  add_field(verdict, "metrics", values + "}");
  std::cout << verdict << "}" << std::endl;
  if (!correct) std::cerr << "perfbench: " << tally.wrong << " wrong answers\n";
  return correct ? 0 : 1;
}

// --- Tracer ---------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

int Tracer::thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

double Tracer::us_of(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - t0_).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, const char* layer)
    : tracer_(tracer), name_(name), layer_(layer),
      start_(tracer.enabled_ ? Clock::now() : Clock::time_point{}) {}

Tracer::Scope::~Scope() {
  if (tracer_.enabled_) tracer_.complete(name_, layer_, start_, ms_since(start_));
}

void Tracer::complete(const std::string& name, const std::string& layer,
                      Clock::time_point start, double dur_ms, int pid, int tid) {
  if (!enabled_) return;
  Event e{name, layer, 'X', us_of(start), dur_ms * 1000.0, pid,
          tid >= 0 ? tid : thread_index()};
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(e));
}

void Tracer::import(const mcr::obs::TraceRecorder& recorder, Clock::time_point recorder_t0) {
  if (!enabled_) return;
  const double offset = us_of(recorder_t0);
  std::vector<Event> imported;
  for (const auto& e : recorder.events()) {
    Event out;
    out.layer = std::string("core.") + mcr::obs::to_string(e.kind);
    out.name = e.name;
    out.ts_us = offset + e.micros;
    out.pid = 2;
    out.tid = static_cast<int>(e.tid);
    switch (e.phase) {
      case mcr::obs::TraceRecorder::Phase::kBegin: out.ph = 'B'; break;
      case mcr::obs::TraceRecorder::Phase::kEnd: out.ph = 'E'; break;
      case mcr::obs::TraceRecorder::Phase::kInstant: out.ph = 'i'; break;
    }
    imported.push_back(std::move(out));
  }
  std::lock_guard lock(mutex_);
  events_.insert(events_.end(), imported.begin(), imported.end());
}

void Tracer::name_process(int pid, const std::string& name) {
  std::lock_guard lock(mutex_);
  process_names_[pid] = name;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (const auto& [pid, name] : process_names_) {
    if (out.back() != '[') out += ',';
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"args\":{\"name\":" + quoted(name) + "}}";
  }
  for (const Event& e : events_) {
    if (out.back() != '[') out += ',';
    out += "{\"name\":" + quoted(e.name) + ",\"cat\":" + quoted(e.layer) + ",\"ph\":\"" +
           e.ph + "\",\"ts\":" + json_number(e.ts_us) + ",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid);
    if (e.ph == 'X') out += ",\"dur\":" + json_number(e.dur_us);
    if (e.ph == 'i') out += ",\"s\":\"t\"";
    out += "}";
  }
  out += "]}\n";
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << out;
}

}  // namespace perfbench
