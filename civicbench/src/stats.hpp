// stats.hpp — sample arithmetic, failure accounting and thread CPU.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace civicbench {

/// Exact percentile of `samples` (0 ≤ p ≤ 100) by linear interpolation
/// between the two closest ranks — numpy's default definition. Sorts
/// a copy; returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Ratio that is 0 for an empty base instead of NaN.
[[nodiscard]] double ratio(double num, double den);

/// Operations of one kind: how many were attempted, how many timed
/// out, how many came back wrong. A wrong answer is a benchmark
/// failure; a timeout only counts against fail_ratio.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t wrong = 0;

  [[nodiscard]] std::uint64_t failed() const { return timed_out + wrong; }
  [[nodiscard]] double fail_ratio() const {
    return ratio(static_cast<double>(failed()), static_cast<double>(attempted));
  }
  OpCount& operator+=(const OpCount& other) {
    attempted += other.attempted;
    timed_out += other.timed_out;
    wrong += other.wrong;
    return *this;
  }
};

/// Thread ids of this process right now.
[[nodiscard]] std::vector<pid_t> thread_ids();

/// Thread ids present in `after` but not in `before`.
[[nodiscard]] std::vector<pid_t> new_threads(const std::vector<pid_t>& before,
                                             const std::vector<pid_t>& after);

/// Total CPU time (user + system, seconds) of the given threads of this
/// process; threads that have exited count as 0.
[[nodiscard]] double threads_cpu_s(const std::vector<pid_t>& tids);

/// Restricts thread `tid` of this process to one CPU; false when the
/// host has no such CPU or refuses.
bool pin_thread(pid_t tid, int cpu);

/// Calling thread's kernel id.
[[nodiscard]] pid_t current_tid();

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace civicbench
