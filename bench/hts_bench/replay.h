// Single-threaded layer replays: each drives one layer's code directly, with
// the workload's value size, op mix and deployment shape, and reports its
// cost per operation. They run after a traced run's window (the cluster is
// gone by then), so nothing else competes for the CPU or the allocator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "code/policy.h"

namespace hts_bench {

struct ReplayParams {
  std::size_t n_servers = 3;
  std::size_t value_size = 1024;
  double write_frac = 1.0;
  std::size_t registers = 16;
  hts::code::ValuePolicy policy;
  /// Timer replay fabric: the workload's client transport.
  bool tcp = false;
  /// Pending timers for the timer replay: measured ops/s × retry timeout.
  std::size_t pending_timers = 0;
  std::uint64_t seed = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// client.sm_ns_per_op, server.sm_ns_per_{write,read},
/// codec.{encode,decode}_ns.<kind>, codec.allocs_per_decode,
/// net.{inmem,tcp}_hop_us, net.timer_arm_us, code.{encode,decode}_us.
std::vector<Metric> run_replays(const ReplayParams& p);

}  // namespace hts_bench
