// SimTransport — the discrete-event simulator as a net::Transport.
//
// Node layout mirrors the paper's testbed (DESIGN.md §3): every server has a
// NIC on the server network (ring traffic) and a NIC on the client network;
// client *machines* (each with its own NIC) host many logical clients, the
// paper's trick for saturating servers without hundreds of physical nodes.
// With `shared_network` the two networks collapse into one and each server
// uses a single NIC for everything — the paper's bottom-most experiment.
//
// Every handler runs on the thread driving the Simulator, at virtual time: a
// delivery, a timer or a crash notice is a simulator event, and execute()
// runs its closure inline at the current virtual time. Sends are charged to
// the modelled NICs (framing included) and delivered when the bits have
// crossed both serializers. A send to a crashed server is still transmitted
// and dies on the wire, as it would on a real link; only sends from a
// crashed node and to an unknown one are dropped uncharged.
//
// Egress pacing: a server that registers a link-ready upcall is pulled once
// per free transmit slot of its server-network NIC, so its fairness
// scheduler picks each ring batch at the moment the link frees — the paper's
// "one ring message per round" pacing. On a shared network the same slots
// alternate between that upcall and the server's queued client replies,
// the way per-connection TCP fairness shares a real NIC; without it, a
// saturating read load would starve the ring entirely. A node without the
// upcall (the baselines) puts everything on the wire at once.
//
// Incarnations: a server address may be registered again once it crashed (a
// ring grown after a shrink reuses the retired ring's global ids). The new
// registration is a fresh node with fresh NICs; deliveries, timers and
// pumps already scheduled stay bound to the old one and die with it.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/payload.h"
#include "net/transport.h"
#include "obs/net_stats.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hts::sim {

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

class SimTransport final : public net::Transport {
 public:
  struct Options {
    NetConfig net;                ///< link model for both networks
    bool shared_network = false;  ///< one NIC per server for all traffic
    double detection_delay_s = 2e-3;
  };

  SimTransport(Simulator& sim, Options opts);
  ~SimTransport() override;
  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  /// Adds a client machine (its own NIC on the client network).
  std::size_t add_machine();
  /// Hosts client `c` on `machine`; call before registering its node. A
  /// client registered unplaced gets a machine of its own.
  void place(ClientId c, std::size_t machine) { placement_[c] = machine; }

  // net::Transport
  void register_node(net::NodeAddress addr, MessageHandler on_message,
                     CrashHandler on_crash = nullptr,
                     TimerHandler on_timer = nullptr,
                     LinkReadyHandler on_link_ready = nullptr) override;
  void start() override {}
  void stop() override {}
  void send(net::NodeAddress from, net::NodeAddress to,
            net::PayloadPtr msg) override;
  /// Runs `fn` inline, now; not from inside `node`'s own handlers.
  void execute(net::NodeAddress node, std::function<void()> fn) override;
  void pull_egress(net::NodeAddress node) override;
  [[nodiscard]] double now() const override { return sim_.now(); }
  void arm_timer(net::NodeAddress addr, double delay_s,
                 std::uint64_t token) override;
  /// The crashed server's NICs go down at once; every surviving node's
  /// crash handler fires, in address order, after the detection delay.
  void crash(net::NodeAddress addr) override;
  [[nodiscard]] bool is_up(net::NodeAddress addr) const override;
  /// Runs the simulator until no event is left.
  bool wait_quiescent(double timeout_s) override;
  [[nodiscard]] std::uint64_t total_transmissions() const override;
  [[nodiscard]] std::uint64_t total_bytes_sent() const override;
  /// Server-network NICs, then client-network NICs ("s<g>.ring",
  /// "s<g>.client", "cm<k>").
  [[nodiscard]] std::vector<obs::LinkCounters> link_counters() const override;

  /// What server `global`'s server-network NIC transmitted.
  [[nodiscard]] obs::LinkCounters ring_link(ProcessId global) const;
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] Network& server_network() { return server_net_; }
  [[nodiscard]] Network& client_network() { return *client_net_; }

 private:
  struct Node;

  [[nodiscard]] Node* find(net::NodeAddress addr) const;
  /// Puts `msg` on `net` from NIC `src` to NIC `dst`, for node `to`.
  void transmit(Network& net, NicId src, NicId dst, net::PayloadPtr msg,
                Node& to, net::NodeAddress from);
  void transmit_reply(Node& server, ClientId client, net::PayloadPtr msg);
  /// One pull per free transmit slot (see the file comment).
  void pump(Node& n);
  void schedule_pump(Node& n, double at);

  Simulator& sim_;
  const Options opts_;
  Network server_net_;
  std::unique_ptr<Network> client_net_owned_;  // null when shared
  Network* client_net_;
  std::vector<NicId> machines_;
  std::map<ClientId, std::size_t> placement_;
  /// Every incarnation ever registered, kept alive for scheduled events.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<net::NodeAddress, Node*> current_;
};

}  // namespace hts::sim
