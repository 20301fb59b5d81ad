#include "obs/flight_recorder.h"

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/hash.h"

namespace mcr::obs {

namespace {

std::string fmt_us(double us) {
  std::ostringstream os;
  os << us;
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// RequestTrace

std::uint32_t RequestTrace::thread_index_locked() {
  const auto id = std::this_thread::get_id();
  const auto it = thread_ids_.find(id);
  if (it != thread_ids_.end()) return it->second;
  const auto tid = static_cast<std::uint32_t>(thread_ids_.size());
  thread_ids_.emplace(id, tid);
  return tid;
}

void RequestTrace::push(TraceRecorder::Event&& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  e.tid = thread_index_locked();
  events_.push_back(std::move(e));
}

void RequestTrace::begin_span(EventKind kind, std::string_view name) {
  push({kind, TraceRecorder::Phase::kBegin, std::string(name), 0, 0,
        micros_now()});
}

void RequestTrace::end_span(EventKind kind) {
  push({kind, TraceRecorder::Phase::kEnd, std::string(), 0, 0, micros_now()});
}

void RequestTrace::instant(EventKind kind, std::string_view name,
                           std::int64_t value) {
  push({kind, TraceRecorder::Phase::kInstant, std::string(name), value, 0,
        micros_now()});
}

void RequestTrace::record_span(EventKind kind, std::string_view name,
                               double begin_us, double end_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() + 2 > kMaxEvents) {
    dropped_ += 2;
    return;
  }
  const std::uint32_t tid = thread_index_locked();
  events_.push_back({kind, TraceRecorder::Phase::kBegin, std::string(name), 0,
                     tid, begin_us});
  events_.push_back(
      {kind, TraceRecorder::Phase::kEnd, std::string(), 0, tid, end_us});
}

void RequestTrace::note(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  notes_.emplace_back(std::string(key), std::string(value));
}

std::vector<TraceRecorder::Event> RequestTrace::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t RequestTrace::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<std::pair<std::string, std::string>> RequestTrace::notes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return notes_;
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::FlightRecorder(Options options) : options_(options) {}

double FlightRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool FlightRecorder::would_sample(std::string_view trace_id) const {
  if (options_.sample_rate >= 1.0) return true;
  if (options_.sample_rate <= 0.0) return false;
  const std::uint64_t h = splitmix64(fnv1a(trace_id) ^ options_.sample_salt);
  return unit_double(h) < options_.sample_rate;
}

std::shared_ptr<RequestTrace> FlightRecorder::begin(std::string trace_id,
                                                    std::string verb,
                                                    std::string parent_span) {
  const bool sampled = would_sample(trace_id);
  // Private constructor: make_shared cannot reach it, and the trace is
  // small, so plain new is fine here.
  return std::shared_ptr<RequestTrace>(
      new RequestTrace(std::move(trace_id), std::move(verb),
                       std::move(parent_span), sampled, now_us(), epoch_));
}

void FlightRecorder::finish(const std::shared_ptr<RequestTrace>& trace,
                            std::string_view error_code, double duration_ms) {
  if (trace == nullptr) return;
  // Outcome fields are written before the trace becomes visible in the
  // ring; the publishing mutex below orders them for readers.
  trace->duration_ms_ = duration_ms;
  trace->error_code_ = std::string(error_code);
  trace->pinned_ = !trace->error_code_.empty() ||
                   (options_.slow_ms >= 0.0 && duration_ms >= options_.slow_ms);

  std::lock_guard<std::mutex> lock(mutex_);
  ++finished_;
  recent_.push_back(trace);
  while (recent_.size() > options_.capacity) {
    recent_.pop_front();
    ++evicted_;
  }
  if (trace->pinned_) {
    pinned_.push_back(trace);
    while (pinned_.size() > options_.pinned_capacity) pinned_.pop_front();
  }
}

std::vector<std::shared_ptr<const RequestTrace>> FlightRecorder::select(
    const Filter& filter) const {
  std::vector<std::shared_ptr<const RequestTrace>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Pinned traces are strictly older-or-equal members of the stream;
    // concatenating (pinned, recent) and deduplicating by pointer keeps
    // finish order.
    out.reserve(pinned_.size() + recent_.size());
    for (const auto& t : pinned_) out.push_back(t);
    for (const auto& t : recent_) out.push_back(t);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a->start_us() < b->start_us();
                   });
  out.erase(std::unique(out.begin(), out.end()), out.end());

  std::vector<std::shared_ptr<const RequestTrace>> matched;
  for (const auto& t : out) {
    if (!filter.trace_id.empty() && t->trace_id() != filter.trace_id) continue;
    if (!filter.verb.empty() && t->verb() != filter.verb) continue;
    if (filter.min_ms >= 0.0 && t->duration_ms() < filter.min_ms) continue;
    matched.push_back(t);
  }
  if (filter.limit > 0 && matched.size() > filter.limit) {
    matched.erase(matched.begin(),
                  matched.end() - static_cast<std::ptrdiff_t>(filter.limit));
  }
  return matched;
}

void FlightRecorder::write_chrome_trace(std::ostream& os,
                                        const Filter& filter) const {
  const auto traces = select(filter);
  std::string out;
  out.reserve(traces.size() * 1024 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](std::string_view fragment) {
    if (!first) out += ',';
    first = false;
    out += fragment;
  };
  int pid = 0;
  for (const auto& t : traces) {
    ++pid;
    const std::string pid_tid_prefix = ",\"pid\":" + std::to_string(pid);
    {
      // Process-name metadata: one Perfetto track group per request.
      std::string m = "{\"name\":\"process_name\",\"ph\":\"M\"";
      m += pid_tid_prefix;
      m += ",\"tid\":0,\"args\":{\"name\":\"";
      json_escape(m, t->verb());
      m += ' ';
      json_escape(m, t->trace_id());
      m += "\"}}";
      emit(m);
    }
    {
      // request_info instant: identity, outcome, notes.
      std::string m = "{\"name\":\"request_info\",\"cat\":\"request\","
                      "\"ph\":\"i\",\"s\":\"p\",\"ts\":";
      m += fmt_us(t->start_us());
      m += pid_tid_prefix;
      m += ",\"tid\":0,\"args\":{\"trace_id\":\"";
      json_escape(m, t->trace_id());
      m += "\",\"verb\":\"";
      json_escape(m, t->verb());
      if (!t->parent_span().empty()) {
        m += "\",\"parent_span\":\"";
        json_escape(m, t->parent_span());
      }
      m += "\",\"status\":\"";
      json_escape(m, t->error_code().empty() ? "ok" : t->error_code());
      m += "\",\"duration_ms\":";
      m += fmt_us(t->duration_ms());
      m += ",\"sampled\":";
      m += t->sampled() ? "true" : "false";
      m += ",\"pinned\":";
      m += t->pinned() ? "true" : "false";
      if (const std::uint64_t dropped = t->dropped_events(); dropped > 0) {
        m += ",\"dropped_events\":" + std::to_string(dropped);
      }
      for (const auto& [key, value] : t->notes()) {
        m += ",\"";
        json_escape(m, key);
        m += "\":\"";
        json_escape(m, value);
        m += '"';
      }
      m += "}}";
      emit(m);
    }
    // Per-thread stacks of open span names so "E" events repeat the
    // name (Perfetto matches on it when present) — same convention as
    // TraceRecorder::write_chrome_trace.
    std::map<std::uint32_t, std::vector<std::string>> open;
    for (const TraceRecorder::Event& e : t->events()) {
      std::string m;
      const auto common = [&](const char* ph, std::string_view name) {
        m += "{\"name\":\"";
        json_escape(m, name);
        m += "\",\"cat\":\"";
        m += to_string(e.kind);
        m += "\",\"ph\":\"";
        m += ph;
        m += "\",\"ts\":";
        m += fmt_us(e.micros);
        m += pid_tid_prefix;
        m += ",\"tid\":" + std::to_string(e.tid);
      };
      switch (e.phase) {
        case TraceRecorder::Phase::kBegin:
          common("B", e.name);
          m += '}';
          open[e.tid].push_back(e.name);
          break;
        case TraceRecorder::Phase::kEnd: {
          auto& stack = open[e.tid];
          const std::string name =
              stack.empty() ? std::string(to_string(e.kind)) : stack.back();
          if (!stack.empty()) stack.pop_back();
          common("E", name);
          m += '}';
          break;
        }
        case TraceRecorder::Phase::kInstant:
          common("i", e.name);
          m += ",\"s\":\"t\",\"args\":{\"value\":";
          m += std::to_string(e.value);
          m += "}}";
          break;
      }
      emit(m);
    }
  }
  out += "]}";
  os << out;
}

std::string FlightRecorder::chrome_trace_json(const Filter& filter) const {
  std::ostringstream os;
  write_chrome_trace(os, filter);
  return os.str();
}

std::string FlightRecorder::dump_json() const {
  Filter everything;
  everything.limit = 0;
  everything.min_ms = -1.0;
  return chrome_trace_json(everything);
}

std::size_t FlightRecorder::ring_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recent_.size();
}

std::size_t FlightRecorder::pinned_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pinned_.size();
}

std::uint64_t FlightRecorder::finished_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::uint64_t FlightRecorder::evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

// ---------------------------------------------------------------------------
// Fatal-signal post-mortem dump

namespace {

std::atomic<FlightRecorder*> g_dump_recorder{nullptr};
// Fixed-size path buffer: the handler must not touch std::string.
char g_dump_path[512] = {0};
constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

void fatal_dump_handler(int signo) {
  FlightRecorder* recorder = g_dump_recorder.exchange(nullptr);
  if (recorder != nullptr && g_dump_path[0] != '\0') {
    // Best effort while dying: dump_json allocates, which is not
    // async-signal-safe; a second fault here just skips the artifact
    // (the default disposition below still runs).
    const int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const std::string payload = recorder->dump_json();
      std::size_t off = 0;
      while (off < payload.size()) {
        const ::ssize_t n =
            ::write(fd, payload.data() + off, payload.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void install_fatal_dump(FlightRecorder* recorder, const std::string& path) {
  if (recorder == nullptr || path.empty()) {
    g_dump_recorder.store(nullptr);
    g_dump_path[0] = '\0';
    for (const int signo : kFatalSignals) ::signal(signo, SIG_DFL);
    return;
  }
  const std::size_t n = std::min(path.size(), sizeof g_dump_path - 1);
  path.copy(g_dump_path, n);
  g_dump_path[n] = '\0';
  g_dump_recorder.store(recorder);
  for (const int signo : kFatalSignals) ::signal(signo, fatal_dump_handler);
}

}  // namespace mcr::obs
