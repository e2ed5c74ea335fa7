// Recorder and probes: the attach points instrumented code holds.
//
// A Recorder bundles the registry, the trace buffer and the clock for one
// run. Fabrics own a Recorder (when configured) and hand each server a
// ServerProbe and each client session a ClientProbe at spawn time. Probes
// are tiny value types built around nullable pointers: an unattached probe
// (default-constructed, everything null) makes every call a single branch,
// which is the "near-zero-cost disabled path" the design promises —
// instrumented hot paths never check a global flag or take a lock when
// observability is off.
//
// Thread safety (DESIGN.md D10): a Recorder is shared by every node thread,
// but its mutable pieces are internally locked (MetricsRegistry, TraceBuffer,
// Histogram) — the Recorder itself needs no lock provided set_clock() runs
// before the fabric starts its threads (both fabrics set it during start()).
// The null-pointer discipline is machine-checked: tools/hts_lint.py's
// probe-null-guard invariant requires every `rec->` dereference in src/ to
// sit within a few lines of a guard (`rec == nullptr` / `attached()`).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hts::obs {

/// One run's observability context. The clock defines event time: sim time
/// on SimCluster, steady_clock-since-start on ThreadedCluster.
class Recorder {
 public:
  using ClockFn = std::function<double()>;

  explicit Recorder(std::size_t trace_capacity = 65536)
      : trace_(trace_capacity) {}

  void set_clock(ClockFn clock) { clock_ = std::move(clock); }
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }
  [[nodiscard]] TraceBuffer& trace() { return trace_; }
  [[nodiscard]] const TraceBuffer& trace() const { return trace_; }

 private:
  MetricsRegistry registry_;
  TraceBuffer trace_;
  ClockFn clock_;
};

/// Server-side attach point. `batch_fill` is the shared "ring.batch_fill"
/// histogram — every server records into the same instance, so its mean is
/// exactly total ring messages / total batches, the RingTraffic fill number.
struct ServerProbe {
  Recorder* rec = nullptr;
  std::uint64_t actor = 0;  ///< global server id (label "s<actor>")
  Histogram* batch_fill = nullptr;

  [[nodiscard]] bool attached() const { return rec != nullptr; }

  void event(EventKind kind, ClientId client, RequestId req,
             std::uint64_t a = 0, std::uint64_t b = 0) const {
    if (rec == nullptr) return;
    rec->trace().record(
        TraceEvent{rec->now(), kind, actor, true, client, req, a, b});
  }

  void record_batch_fill(double fill) const {
    if (batch_fill != nullptr) batch_fill->record(fill);
  }
};

/// Client-side attach point.
struct ClientProbe {
  Recorder* rec = nullptr;
  std::uint64_t actor = 0;  ///< client id (label "c<actor>")

  [[nodiscard]] bool attached() const { return rec != nullptr; }

  void event(EventKind kind, RequestId req, std::uint64_t a = 0,
             std::uint64_t b = 0) const {
    if (rec == nullptr) return;
    rec->trace().record(TraceEvent{rec->now(), kind, actor, false,
                                   static_cast<ClientId>(actor), req, a, b});
  }
};

}  // namespace hts::obs
