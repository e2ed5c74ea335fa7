// ThreadedCluster — hosts the ring protocol on a live net::Transport
// (in-memory queues, or loopback TCP in tcp mode): every server and every
// client runs on its own loop, exactly one protocol event at a time, with
// reliable FIFO links. This is the fabric for integration/stress tests under
// real concurrency and for the runnable examples (it offers a blocking
// client API). It is a thin shell over DeploymentCore, the deployment it
// shares with SimCluster — transport hosts, view, probes, coordinator
// driver, traffic and metrics export; what is left here is the choice of
// transport, the blocking client handle and the lincheck history.
//
// Like SimCluster, the cluster is constructed from a core::Topology — R
// independent rings (heterogeneous sizes allowed) behind the deterministic
// shard map. Servers are addressed by global id (ring-major); crash
// notifications stay inside the crashed server's ring; recorded histories
// tag every op with the ring that served it and the epoch it was served in,
// so the checkers can verify each op went to its epoch's owning ring.
//
// Live reconfiguration (DESIGN.md §Reconfiguration, D8): add_ring() /
// remove_last_ring() block the calling thread while the freeze → copy →
// flip migration runs against live traffic. Server-side commands travel as
// closures executed on the target server's own loop (Transport::execute),
// so the single-threaded state-machine discipline holds throughout. Retired
// global ids are never reused: a grow after a shrink is rejected before
// anything is spawned.
#pragma once

#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "code/policy.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/deployment_core.h"
#include "harness/transport_hosts.h"
#include "lincheck/history.h"
#include "obs/probe.h"

namespace hts::harness {

struct ThreadedClusterConfig {
  /// Single-ring facade: size of the one ring when `topology` is unset.
  std::size_t n_servers = 3;
  /// Deployment shape: R rings (heterogeneous sizes allowed). Unset =
  /// Topology::single(n_servers), the pre-sharding single-ring cluster.
  std::optional<core::Topology> topology;
  double detection_delay_s = 0.005;
  /// Fabric selection: in-process queues (default) or real loopback TCP
  /// sockets (net::TcpTransport) — same deployment, every node hosted in
  /// this process, frames golden-pinned to the wire codec. The node-facing
  /// surface is identical; only the bytes' journey differs.
  enum class TransportKind { kInMem, kTcp };
  TransportKind transport = TransportKind::kInMem;
  /// TCP mode listen-port base; 0 = ephemeral ports (parallel-ctest safe,
  /// single-process only — which is exactly ThreadedCluster's shape).
  std::uint16_t tcp_base_port = 0;
  double client_retry_timeout_s = 0.1;
  /// Session pipelining/backoff knobs (core::ClientOptions pass-through).
  std::size_t client_max_inflight = 8;
  double client_retry_multiplier = 1.0;
  double client_retry_cap = 8.0;
  std::uint64_t client_seed = 0;
  core::ServerOptions server_options;
  bool record_history = true;  ///< collect a lincheck history of all ops

  /// Coded value plane (DESIGN.md §Coded values): one knob for the whole
  /// deployment — applied to every server and every client session.
  /// Inactive by default (replicated-only traffic, golden-pinned).
  code::ValuePolicy value_policy;

  /// Observability (DESIGN.md D9): when set, event time is wall-clock
  /// seconds since cluster construction (steady_clock — monotonic, not
  /// deterministic), every server/session gets a probe, and
  /// export_metrics() snapshots the deployment. Wire-silent.
  obs::Recorder* recorder = nullptr;

  /// The deployment this config describes (single ring unless set).
  [[nodiscard]] core::Topology resolved_topology() const {
    return topology.value_or(core::Topology::single(n_servers));
  }
};

class ThreadedCluster final : public DeploymentCore {
 public:
  explicit ThreadedCluster(const ThreadedClusterConfig& cfg);
  /// Stops the transport while the history its clients record into lives.
  ~ThreadedCluster() override;

  /// Client handle over one pipelined session. The blocking calls are
  /// thread-safe for one caller at a time; the async_* calls may be issued
  /// back-to-back (up to client_max_inflight ops overlap across distinct
  /// objects; same-object ops queue in order inside the session).
  class BlockingClient {
   public:
    /// Blocks until the write of `object` is acknowledged.
    void write(ObjectId object, Value v);
    /// Blocks until a value of `object` is returned.
    Value read(ObjectId object);
    /// Like read() but exposes the full result (tag, attempts, served_by).
    core::OpResult read_result(ObjectId object);

    /// Pipelined issue: returns immediately; the future resolves when the
    /// operation completes. Ops on distinct objects proceed in parallel.
    std::future<core::OpResult> async_write(ObjectId object, Value v);
    std::future<core::OpResult> async_read(ObjectId object);

    [[nodiscard]] ClientId id() const;

   private:
    friend class ThreadedCluster;
    explicit BlockingClient(TransportClientHost* host) : host_(host) {}
    TransportClientHost* host_;
  };

  /// Adds a client before start(); the reference stays valid for the
  /// cluster's lifetime.
  BlockingClient& add_client(ProcessId preferred_server);

  void start() { transport().start(); }

  // Threading contract: one controlling thread drives the cluster —
  // add_client/start/crash_server/add_ring/remove_last_ring and the
  // unlocked introspection accessors (topology(), n_servers(),
  // reconfig_stats(), server()) all belong to it. A *different* thread
  // observing a blocking reconfiguration in progress may only use the
  // locked observers view() and rings_by_epoch(). add_ring() and
  // remove_last_ring() (DeploymentCore) block until the flip; call them
  // after start().

  /// Blocks until all queues drain (no protocol work left).
  bool wait_quiescent(double timeout_s) {
    return transport().wait_quiescent(timeout_s);
  }

  /// Snapshot of the recorded operation history. Ops carry the ring that
  /// served them (from the replying server's global id) and the epoch.
  [[nodiscard]] lincheck::History history() const {
    return history_.snapshot();
  }

 private:
  const bool record_history_;
  std::vector<std::unique_ptr<BlockingClient>> handles_;
  HistorySink history_;
};

}  // namespace hts::harness
