// SimCluster — hosts the core ring protocol on the discrete-event simulator.
//
// Node layout mirrors the paper's testbed: every server has a NIC on the
// server network (ring traffic) and a NIC on the client network; client
// *machines* (each with its own NIC) host many logical clients, the paper's
// trick for saturating servers without hundreds of physical nodes. With
// `shared_network = true` the two networks collapse into one and each server
// uses a single NIC for everything — the paper's bottom-most experiment.
//
// The nodes are the simulator's own hosts (NIC pacing, client envelopes);
// the view, session options, probes and metrics export are the
// DeploymentCore shared with ThreadedCluster.
//
// A cluster is constructed from a core::Topology: R independent rings
// (possibly heterogeneous sizes) behind a deterministic shard map
// (DESIGN.md §Sharding). Servers are addressed by global id (ring-major);
// each ring runs its own instance of the paper's protocol, client sessions
// route each op to its object's ring, and traffic/metrics are reported both
// per ring and in aggregate. The default (no topology set) is the
// single-ring deployment, bit-for-bit the pre-sharding cluster.
//
// The deployment is epoch-versioned (DESIGN.md §Reconfiguration, D8):
// add_ring()/remove_last_ring() run a live freeze → copy → flip migration
// over simulated time. The decisions are core::MigrationCoordinator's; the
// cluster executes its commands synchronously inside scheduled poll
// events, so a run stays a pure function of the seed. New servers spawn at
// runtime, the registers whose shard assignment changes are copied
// ring-to-ring in epoch-stamped MigrateState messages (charged to the
// server network like all traffic), and clients re-route via EpochNack +
// the cluster's ViewRegistry. Every server is installed with its epoch-0
// view and every session reads the registry, always; a deployment that
// never reconfigures still emits the epoch-0 wire traffic byte for byte
// (golden-pinned network totals, tests/reconfig_test.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "code/policy.h"
#include "common/types.h"
#include "core/client.h"
#include "core/reconfig.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/deployment_core.h"
#include "harness/ring_traffic.h"
#include "harness/workload.h"
#include "net/payload.h"
#include "obs/probe.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hts::harness {

/// Wrapper that routes a server→client reply to the right logical client on
/// a shared client-machine NIC (a real deployment demuxes by TCP
/// connection, which also tells the client which server answered — so
/// `from` adds no wire bytes).
struct ClientEnvelope final : net::Payload {
  static constexpr std::uint16_t kKind = 0x7100;
  ClientEnvelope(ClientId to_client, ProcessId from_server, net::PayloadPtr m)
      : Payload(kKind), to(to_client), from(from_server),
        inner(std::move(m)) {}
  ClientId to;
  ProcessId from;
  net::PayloadPtr inner;
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + inner->wire_size();
  }
  [[nodiscard]] std::string describe() const override {
    return "Envelope(c=" + std::to_string(to) + "," + inner->describe() + ")";
  }
};

struct SimClusterConfig {
  /// Single-ring facade: size of the one ring when `topology` is unset.
  std::size_t n_servers = 3;
  /// Deployment shape: R rings (heterogeneous sizes allowed). Unset =
  /// Topology::single(n_servers), the pre-sharding single-ring cluster.
  std::optional<core::Topology> topology;
  sim::NetConfig net;            ///< link model for both networks
  bool shared_network = false;   ///< one NIC per server for all traffic
  double detection_delay_s = 2e-3;
  double client_retry_timeout_s = 0.25;
  /// Session pipelining/backoff knobs (core::ClientOptions pass-through).
  std::size_t client_max_inflight = 1;
  double client_retry_multiplier = 1.0;
  double client_retry_cap = 8.0;
  std::uint64_t client_seed = 0;
  core::ServerOptions server_options;

  /// Coded value plane (DESIGN.md §Coded values): one knob for the whole
  /// deployment — applied to every server (fragment store / GC) and every
  /// client session (encode on write, reconstruct on read). Inactive by
  /// default: the cluster then emits bit-for-bit the replicated-only wire
  /// traffic (golden-pinned in tests/code_test.cpp).
  code::ValuePolicy value_policy;

  /// Observability (DESIGN.md D9): when set, the cluster drives the
  /// recorder's clock from simulated time, attaches a probe to every server
  /// and client session, and export_metrics() snapshots the deployment into
  /// the recorder's registry. Wire-silent: probes only record — a run with
  /// a recorder emits bit-for-bit the traffic of a run without one (tested).
  obs::Recorder* recorder = nullptr;

  /// The deployment this config describes (single ring unless set).
  [[nodiscard]] core::Topology resolved_topology() const {
    return topology.value_or(core::Topology::single(n_servers));
  }
};

class SimCluster {
 public:
  SimCluster(sim::Simulator& sim, SimClusterConfig cfg);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Adds a client machine (own NIC on the client network). Returns its id.
  std::size_t add_client_machine();

  /// Adds a logical client session on `machine`, initially contacting
  /// `server` (a global id); the session routes ops across every ring of the
  /// topology; pipelining width and backoff follow the cluster config.
  core::ClientSession& add_client(std::size_t machine, ProcessId server);

  /// Crashes a server (global id) now: NICs go down, in-flight deliveries to
  /// it are dropped, and the failure detectors of its ring peers fire after
  /// detection_delay (other rings are untouched — shards fail independently).
  void crash_server(ProcessId p);
  void schedule_crash(double at, ProcessId p);

  // ---------- live reconfiguration (DESIGN.md D8) ----------

  /// Starts a live grow: spawns one more ring of `n_servers` and migrates
  /// the ~1/(R+1) of the namespace the shard map reassigns onto it, under
  /// traffic. Returns the epoch the deployment is moving to; the change
  /// completes over simulated time (watch view().epoch /
  /// reconfig_in_progress()). One reconfiguration at a time.
  Epoch add_ring(std::size_t n_servers);
  void schedule_add_ring(double at, std::size_t n_servers);

  /// Starts a live shrink: migrates every register of the last ring back to
  /// the survivors, then retires the ring's servers.
  Epoch remove_last_ring();
  void schedule_remove_last_ring(double at);

  [[nodiscard]] core::ClusterView view() const { return core_.view(); }
  [[nodiscard]] bool reconfig_in_progress() const { return rc_ != nullptr; }
  [[nodiscard]] const core::MigrationStats& reconfig_stats() const {
    return core_.migration_stats;
  }
  /// Ring count per epoch so far (input for the epoch-aware lincheck pass).
  [[nodiscard]] std::vector<std::size_t> rings_by_epoch() const {
    return core_.rings_by_epoch();
  }

  [[nodiscard]] bool server_up(ProcessId p) const;
  /// Server by global id; RingServer::id() is its local (in-ring) index.
  [[nodiscard]] core::RingServer& server(ProcessId p);
  [[nodiscard]] core::ClientSession& client(ClientId id);
  /// Issue/complete surface for workload drivers.
  [[nodiscard]] ClientPort& port(ClientId id);
  [[nodiscard]] std::size_t client_count() const;
  /// Servers ever spawned (retired rings keep their slots, marked down).
  [[nodiscard]] std::size_t n_servers() const { return servers_.size(); }
  [[nodiscard]] const core::Topology& topology() const { return core_.topo; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Network& server_network() { return *server_net_; }
  [[nodiscard]] sim::Network& client_network() { return *client_net_; }
  [[nodiscard]] const SimClusterConfig& config() const { return cfg_; }

  /// Wire traffic ring `r`'s servers emitted, from the per-NIC counters plus
  /// the servers' protocol stats. With shared_network the ring NIC also
  /// carries client replies, so transmissions/bytes include them there.
  [[nodiscard]] RingTraffic ring_traffic(RingId r) const;
  /// ring_traffic for every ring of the topology, in ring order.
  [[nodiscard]] std::vector<RingTraffic> traffic_per_ring() const;

  /// Snapshots the deployment into the configured recorder's registry:
  /// per-server protocol stats and queue depths ("server.s<g>.*" plus the
  /// "server.total.*" sums), per-client session counters ("client.c<id>.*" /
  /// "client.total.*"), per-NIC link counters ("net.server.*" /
  /// "net.client.*"), per-ring wire traffic ("ring.<r>.*" / "ring.total.*")
  /// and the current view epoch. Idempotent (counters are set, not
  /// incremented); no-op without a recorder.
  void export_metrics();

 private:
  struct ServerNode;
  struct ClientMachine;
  struct LogicalClient;

  ServerNode& spawn_server(RingId ring, ProcessId local, std::size_t ring_size,
                           ProcessId global, ProcessId ring_base);
  /// Executes coordinator commands until it waits (the next poll becomes a
  /// scheduled event) or finishes the flip.
  void run_coordinator();

  sim::Simulator& sim_;
  SimClusterConfig cfg_;
  DeploymentCore core_;
  std::unique_ptr<core::MigrationCoordinator> rc_;

  std::unique_ptr<sim::Network> server_net_;
  std::unique_ptr<sim::Network> client_net_owned_;  // null when shared
  sim::Network* client_net_ = nullptr;

  std::vector<std::unique_ptr<ServerNode>> servers_;
  /// Retired nodes whose global-id slot was reused by a later grow; kept
  /// alive because already-scheduled sim events may still reference them.
  std::vector<std::unique_ptr<ServerNode>> graveyard_;
  std::vector<std::unique_ptr<ClientMachine>> machines_;
  std::vector<std::unique_ptr<LogicalClient>> clients_;
};

}  // namespace hts::harness
