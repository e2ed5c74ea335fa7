// Counters read from outside the program under test: the environment probe
// (a fixed CPU kernel and /proc/stat steal time), CPU time and context
// switches from getrusage and /proc/<pid>, peak resident set sizes, and the
// allocation count kept by this binary's operator-new hook (alloc_hook.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include <sys/types.h>

namespace hts_bench {

/// Allocations made by this process so far, every thread counted.
std::uint64_t allocations();

/// Single-thread calibration kernel: a fixed dependent integer chain, timed
/// three times; returns the median rate in millions of steps per second.
/// The same number before and after a workload means the machine gave the
/// run the same CPU it gave the calibration.
double calibrate_mops();

/// Keeps every CPU this process may run on busy for `seconds`. On a VM
/// whose CPUs sat idle, the first second or so of work runs slow; a
/// deployment started then can stay slow for its whole window (in-memory
/// ops stuck behind retry timers), so runs warm the CPUs first.
void warm_cpus(double seconds);

/// Jiffies from the aggregate "cpu" line of /proc/stat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies read_cpu_jiffies();
/// Share of all CPU time stolen by the hypervisor between two readings.
double steal_frac(const CpuJiffies& before, const CpuJiffies& after);

/// CPU time and context switches of one process (all its threads).
struct ProcUsage {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};
/// This process, from getrusage(RUSAGE_SELF).
ProcUsage self_usage();
/// Another process, from /proc/<pid>/stat (utime + stime) and the summed
/// voluntary + involuntary switches of /proc/<pid>/task/*/status.
ProcUsage pid_usage(pid_t pid);
/// Direct children of this process, found by scanning /proc for ppid.
std::vector<pid_t> child_pids();
/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mib(pid_t pid);

}  // namespace hts_bench
