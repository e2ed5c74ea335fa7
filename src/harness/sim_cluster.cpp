#include "harness/sim_cluster.h"

#include <cassert>

namespace hts::harness {

SimCluster::SimCluster(sim::Simulator& sim, const SimClusterConfig& cfg)
    : DeploymentCore(cfg, std::make_unique<sim::SimTransport>(
                              sim, sim::SimTransport::Options{
                                       cfg.net, cfg.shared_network,
                                       cfg.detection_delay_s})),
      net_(static_cast<sim::SimTransport&>(transport())) {}

core::ClientSession& SimCluster::add_client(std::size_t machine,
                                            ProcessId server) {
  assert(server < n_servers());
  net_.place(static_cast<ClientId>(client_count()), machine);
  return add_client_host(server, /*history=*/nullptr).session();
}

void SimCluster::schedule_crash(double at, ProcessId p) {
  simulator().schedule_at(at, [this, p] { crash_server(p); });
}

void SimCluster::schedule_add_ring(double at, std::size_t n_servers) {
  simulator().schedule_at(at, [this, n_servers] { add_ring(n_servers); });
}

void SimCluster::schedule_remove_last_ring(double at) {
  simulator().schedule_at(at, [this] { remove_last_ring(); });
}

}  // namespace hts::harness
