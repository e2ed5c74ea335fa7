// Closed-loop workload drivers and the protocol-agnostic client port.
//
// The paper's load generator: "the client application can emulate multiple
// clients, i.e. it can send multiple read and write requests in parallel" —
// here, each logical client keeps up to `pipeline` operations in flight
// (1 = the classic closed loop) spread over `n_objects` registers, and a
// machine hosts many of them. Drivers work against any protocol (core ring,
// ABD, chain, TOB) through the ClientPort interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "lincheck/history.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace hts::harness {

/// Minimal issue/complete surface every protocol's client adapter exposes.
/// Operations address a register in the object namespace. begin_* returns
/// the request id so pipelining drivers can match completions.
class ClientPort {
 public:
  virtual RequestId begin_write(ObjectId object, Value v) = 0;
  virtual RequestId begin_read(ObjectId object) = 0;
  /// Invoked exactly once per begin_*; set before the first begin.
  virtual void set_on_complete(
      std::function<void(const core::OpResult&)> cb) = 0;
  virtual ~ClientPort() = default;
};

/// Hands out globally unique write-value seeds (lincheck needs unique
/// writes; seed 0 is reserved for the initial value).
class UniqueValueSource {
 public:
  std::uint64_t next() { return next_++; }

 private:
  std::uint64_t next_ = 1;
};

struct WorkloadConfig {
  double write_fraction = 0.0;  ///< 0 = pure reader, 1 = pure writer
  std::size_t value_size = 8192;
  double start_at = 0.0;        ///< first issue time (staggered per client)
  double stop_at = 10.0;        ///< stop issuing new operations
  double measure_from = 1.0;    ///< metrics window start (post-warmup)
  double measure_until = 10.0;  ///< metrics window end
  std::uint64_t seed = 1;       ///< rng for the read/write and object coins
  std::size_t n_objects = 1;    ///< registers addressed (uniformly at random)
  std::size_t pipeline = 1;     ///< concurrent ops kept in flight (1=closed)
  /// Cycle objects round-robin (op i → object (i + object_offset) mod
  /// n_objects) instead of uniformly at random — deterministic coverage
  /// (e.g. preloading every register exactly once with pipeline =
  /// n_objects, or one register per single-op client via object_offset).
  bool round_robin_objects = false;
  std::size_t object_offset = 0;  ///< round-robin phase (see above)
};

/// Keeps up to `pipeline` operations in flight until stop_at (1 = the
/// classic one-at-a-time closed loop); records metrics inside the
/// measurement window and, optionally, every operation into a lincheck
/// history (pending ops flushed by finalize()).
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(sim::Simulator& sim, ClientPort& port, ClientId client_id,
                   WorkloadConfig cfg, UniqueValueSource& values,
                   lincheck::History* history = nullptr);

  /// Schedules the first operation(s).
  void start();

  /// Flushes still-outstanding write operations into the history as pending.
  void finalize();

  /// Optional per-bucket completion series (observability): every completed
  /// op records its payload bytes at its completion time, across the whole
  /// run (not just the measurement window) — fig8's migration dip becomes a
  /// first-class exported series. Either pointer may be null.
  void set_series(obs::TimeSeries* write_bytes, obs::TimeSeries* read_bytes) {
    write_series_ = write_bytes;
    read_series_ = read_bytes;
  }

  [[nodiscard]] const ThroughputMeter& read_meter() const { return reads_; }
  [[nodiscard]] const ThroughputMeter& write_meter() const { return writes_; }
  [[nodiscard]] const LatencyStats& read_latency() const { return read_lat_; }
  [[nodiscard]] const LatencyStats& write_latency() const {
    return write_lat_;
  }
  [[nodiscard]] std::uint64_t ops_issued() const { return issued_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

 private:
  void issue();
  void completed(const core::OpResult& r);

  sim::Simulator& sim_;
  ClientPort& port_;
  ClientId client_id_;
  WorkloadConfig cfg_;
  UniqueValueSource& values_;
  lincheck::History* history_;
  Rng rng_;

  struct InFlight {
    bool is_read;
    ObjectId object;
    std::uint64_t value_seed;
    double invoked_at;
  };
  std::map<RequestId, InFlight> in_flight_;

  ThroughputMeter reads_, writes_;
  LatencyStats read_lat_, write_lat_;
  std::uint64_t issued_ = 0;
  obs::TimeSeries* write_series_ = nullptr;
  obs::TimeSeries* read_series_ = nullptr;
};

}  // namespace hts::harness
