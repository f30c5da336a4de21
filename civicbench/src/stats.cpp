#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <dirent.h>
#include <sched.h>
#include <fstream>
#include <sys/syscall.h>
#include <unistd.h>

namespace civicbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    out.push_back(static_cast<pid_t>(std::atol(entry->d_name)));
  }
  closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<pid_t> new_threads(const std::vector<pid_t>& before,
                               const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

double threads_cpu_s(const std::vector<pid_t>& tids) {
  double total = 0.0;
  for (pid_t tid : tids) {
    // Linux encodes another thread's CPU clock in the clockid itself
    // (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)); readable for any
    // thread of the calling process, with nanosecond resolution.
    const auto clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0)
      total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  return total;
}

bool pin_thread(pid_t tid, int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof set, &set) == 0;
}

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

}  // namespace civicbench
