#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "svc/client.h"

namespace perfbench {

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream f(status_path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in " + status_path);
}

}  // namespace

Daemon::Daemon(std::vector<std::string> argv, const std::string& log_path) {
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    // Inherit no benchmark socket: a daemon holding a copy of a client
    // connection would keep its peer from ever seeing EOF.
    ::close_range(3, ~0U, 0);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

double Daemon::cpu_seconds() const {
  // /proc/PID/stat: the command may hold spaces, so count fields after ')'.
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read /proc stat of a daemon");
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int k = 3; k < 14; ++k) fields >> skip;  // state .. cmajflt
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void Daemon::stop(double grace_s) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(grace_s));
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

void wait_ready(const std::string& socket_path, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  for (;;) {
    try {
      mcr::svc::Client c = mcr::svc::Client::connect_unix(socket_path);
      if (c.ping()) return;
    } catch (const std::exception&) {
      // not listening yet
    }
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("daemon on " + socket_path + " not ready after " +
                               std::to_string(timeout_s) + " s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double self_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
constexpr std::size_t kProbeNodes = 16384;
constexpr std::size_t kProbeArcs = 49152;
}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : src_(kProbeArcs), dst_(kProbeArcs), weight_(kProbeArcs), dist_(kProbeNodes) {
  std::uint64_t x = 1;
  for (std::size_t a = 0; a < kProbeArcs; ++a) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    src_[a] = static_cast<std::uint32_t>((x >> 33) % kProbeNodes);
    dst_[a] = static_cast<std::uint32_t>((x >> 17) % kProbeNodes);
    weight_[a] = static_cast<std::int64_t>((x >> 40) % 10000) - 5000;
  }
}

double HostSpeedProbe::cpu_ms() {
  const double t0 = thread_cpu_seconds();
  std::fill(dist_.begin(), dist_.end(), 0);
  for (int sweep = 0; sweep < 20; ++sweep) {
    for (std::size_t a = 0; a < kProbeArcs; ++a) {
      const std::int64_t d = dist_[src_[a]] + weight_[a];
      if (d < dist_[dst_[a]]) dist_[dst_[a]] = d;
    }
  }
  sink_ = sink_ + dist_[0];  // keeps the sweeps observable
  return (thread_cpu_seconds() - t0) * 1000.0;
}

}  // namespace perfbench
