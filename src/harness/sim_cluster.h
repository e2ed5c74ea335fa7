// SimCluster — hosts the core ring protocol on the discrete-event simulator.
//
// A thin shell over DeploymentCore on a sim::SimTransport: the transport
// models the paper's testbed (a server network for ring traffic, a client
// network, client *machines* each hosting many logical clients, and with
// `shared_network = true` one NIC per server for everything — the paper's
// bottom-most experiment), and the servers and sessions are the same
// transport hosts every other deployment runs. What is left here is the
// simulator's surface: client machines, the workload drivers' ClientPorts,
// scheduled crashes and reconfigurations, and the two networks.
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
// add_ring()/remove_last_ring() start a live freeze → copy → flip migration
// that completes over simulated time, driven by scheduled simulator events,
// so a run stays a pure function of the seed. New servers spawn at runtime,
// the registers whose shard assignment changes are copied ring-to-ring in
// epoch-stamped MigrateState messages (charged to the server network like
// all traffic), and clients re-route via EpochNack + the cluster's
// ViewRegistry. Every server is installed with its epoch-0 view and every
// session reads the registry, always; a deployment that never reconfigures
// still emits the epoch-0 wire traffic byte for byte (golden-pinned network
// totals, tests/reconfig_test.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "code/policy.h"
#include "common/types.h"
#include "core/client.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/deployment_core.h"
#include "harness/workload.h"
#include "obs/probe.h"
#include "sim/network.h"
#include "sim/sim_transport.h"
#include "sim/simulator.h"

namespace hts::harness {

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
  /// Session pipelining width (core::ClientOptions pass-through).
  std::size_t client_max_inflight = 1;
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

class SimCluster final : public DeploymentCore {
 public:
  SimCluster(sim::Simulator& sim, const SimClusterConfig& cfg);

  /// Adds a client machine (own NIC on the client network). Returns its id.
  std::size_t add_client_machine() { return net_.add_machine(); }

  /// Adds a logical client session on `machine`, initially contacting
  /// `server` (a global id); the session routes ops across every ring of the
  /// topology; pipelining width and retry timeout follow the cluster config.
  core::ClientSession& add_client(std::size_t machine, ProcessId server);

  /// Crashes a server (global id) at `at`: its NICs go down, in-flight
  /// deliveries to it are dropped, and the failure detectors of its ring
  /// peers fire after detection_delay (see DeploymentCore::crash_server).
  void schedule_crash(double at, ProcessId p);
  /// add_ring() / remove_last_ring() (DeploymentCore) at simulated time
  /// `at`; each returns at once and completes over simulated time.
  void schedule_add_ring(double at, std::size_t n_servers);
  void schedule_remove_last_ring(double at);

  [[nodiscard]] core::ClientSession& client(ClientId id) {
    return client_host(id).session();
  }
  /// Issue/complete surface for workload drivers.
  [[nodiscard]] ClientPort& port(ClientId id) { return client_host(id); }
  using DeploymentCore::client_count;
  [[nodiscard]] sim::Simulator& simulator() { return net_.simulator(); }
  [[nodiscard]] sim::Network& server_network() {
    return net_.server_network();
  }
  [[nodiscard]] sim::Network& client_network() {
    return net_.client_network();
  }

 private:
  sim::SimTransport& net_;  // owned by DeploymentCore
};

}  // namespace hts::harness
