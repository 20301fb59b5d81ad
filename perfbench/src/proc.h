// Child daemons of a benchmark run (mcr_serve, mcr_router) and the
// process-level measurements taken of them and of the benchmark itself.
#ifndef PERFBENCH_PROC_H
#define PERFBENCH_PROC_H

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One spawned daemon. It dies with the benchmark (PR_SET_PDEATHSIG),
/// and the destructor stops it and reaps it.
class Daemon {
 public:
  /// Starts argv[0] with stdout and stderr appended to `log_path`.
  Daemon(std::vector<std::string> argv, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// VmHWM of the live process in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// User + system CPU seconds the live process has used so far.
  [[nodiscard]] double cpu_seconds() const;
  /// SIGTERM, wait for the drain, SIGKILL after `grace_s`. Idempotent.
  void stop(double grace_s = 10.0);

 private:
  pid_t pid_ = -1;
};

/// Polls PING on the unix socket until it answers or `timeout_s` passes
/// (then throws).
void wait_ready(const std::string& socket_path, double timeout_s = 20.0);

/// VmHWM of this process in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// User + system CPU seconds this process has used so far.
[[nodiscard]] double self_cpu_seconds();

/// CPU seconds the calling thread has used so far.
[[nodiscard]] double thread_cpu_seconds();

/// A fixed relaxation kernel that is not part of the program: 20
/// Bellman-Ford sweeps over 49152 pseudo-random arcs on 16384 nodes
/// (about 1 MiB, like the solvers' working sets). Its CPU time tracks how
/// fast the host runs the calling thread at that moment: on the reference
/// VM the same solve's CPU time moved by up to 17% within 90 s while its
/// ratio to this kernel's moved by 4-12%.
class HostSpeedProbe {
 public:
  HostSpeedProbe();

  /// Runs the kernel once on the calling thread; returns its CPU ms.
  double cpu_ms();

 private:
  std::vector<std::uint32_t> src_, dst_;
  std::vector<std::int64_t> weight_, dist_;
  volatile std::int64_t sink_ = 0;
};

/// The probe's median CPU time on the reference VM (4-vCPU Xeon, GCC 12,
/// -O3). Times scaled by kProbeReferenceMs / probe time stay near the raw
/// ones there.
inline constexpr double kProbeReferenceMs = 9.0;

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H
