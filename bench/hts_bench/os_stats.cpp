#include "os_stats.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace hts_bench {

double calibrate_mops() {
  constexpr std::uint64_t kSteps = 20'000'000;
  std::array<double, 3> rates{};
  for (double& rate : rates) {
    const auto t0 = std::chrono::steady_clock::now();
    volatile std::uint64_t seed = 0x9E3779B97F4A7C15ull;
    std::uint64_t x = seed;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545F4914F6CDD1Dull;
    }
    seed = x;
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rate = static_cast<double>(kSteps) / s / 1e6;
  }
  std::sort(rates.begin(), rates.end());
  return rates[1];
}

void warm_cpus(double seconds) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = ::sched_getaffinity(0, sizeof set, &set) == 0
                    ? std::max(1, CPU_COUNT(&set))
                    : 1;
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([end] {
      while (std::chrono::steady_clock::now() < end) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

CpuJiffies read_cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;  // "cpu"
  CpuJiffies j;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && f; ++i) {
    std::uint64_t v = 0;
    f >> v;
    j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

double steal_frac(const CpuJiffies& before, const CpuJiffies& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

ProcUsage self_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

namespace {

/// Fields of /proc/<pid>/stat after the parenthesised command name (which
/// may itself contain spaces): field 0 here is the state, field 1 the ppid.
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  const auto close = line.rfind(')');
  std::vector<std::string> out;
  if (close == std::string::npos) return out;
  std::istringstream rest(line.substr(close + 1));
  for (std::string tok; rest >> tok;) out.push_back(tok);
  return out;
}

std::uint64_t status_field(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  for (std::string line; std::getline(f, line);) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

std::vector<std::string> dir_entries(const std::string& path) {
  std::vector<std::string> out;
  if (DIR* d = ::opendir(path.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        out.emplace_back(e->d_name);
      }
    }
    ::closedir(d);
  }
  return out;
}

}  // namespace

ProcUsage pid_usage(pid_t pid) {
  ProcUsage u;
  const std::vector<std::string> f = stat_fields(pid);
  // utime and stime are stat fields 14 and 15 (1-based), i.e. 11 and 12 here.
  if (f.size() > 12) {
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    u.cpu_s = static_cast<double>(std::strtoull(f[11].c_str(), nullptr, 10) +
                                  std::strtoull(f[12].c_str(), nullptr, 10)) /
              ticks;
  }
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  for (const std::string& tid : dir_entries(task_dir)) {
    const std::string status = task_dir + "/" + tid + "/status";
    u.ctx_switches += status_field(status, "voluntary_ctxt_switches:") +
                      status_field(status, "nonvoluntary_ctxt_switches:");
  }
  return u;
}

std::vector<pid_t> child_pids() {
  const pid_t self = ::getpid();
  std::vector<pid_t> out;
  for (const std::string& name : dir_entries("/proc")) {
    const auto pid = static_cast<pid_t>(std::strtol(name.c_str(), nullptr, 10));
    const std::vector<std::string> f = stat_fields(pid);
    if (f.size() > 1 && std::strtol(f[1].c_str(), nullptr, 10) == self) {
      out.push_back(pid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double peak_rss_mib(pid_t pid) {
  return static_cast<double>(status_field(
             "/proc/" + std::to_string(pid) + "/status", "VmHWM:")) /
         1024.0;
}

}  // namespace hts_bench
