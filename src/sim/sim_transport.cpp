#include "sim/sim_transport.h"

#include <stdexcept>

namespace hts::sim {

using Kind = net::NodeAddress::Kind;

struct SimTransport::Node {
  net::NodeAddress addr;
  MessageHandler on_message;
  CrashHandler on_crash;
  TimerHandler on_timer;
  LinkReadyHandler on_link_ready;
  NicId nic = kNoNic;  // a server's server-network NIC; a client's machine's
  NicId client_nic = kNoNic;  // a server's client-network NIC
  bool up = true;
  bool pump_scheduled = false;
  bool prefer_reply = false;
  /// Client replies waiting for a transmit slot (shared network, paced).
  std::deque<std::pair<ClientId, net::PayloadPtr>> replies;
};

SimTransport::SimTransport(Simulator& sim, Options opts)
    : sim_(sim),
      opts_(opts),
      server_net_(sim, opts.net),
      client_net_owned_(opts.shared_network
                            ? nullptr
                            : std::make_unique<Network>(sim, opts.net)),
      client_net_(opts.shared_network ? &server_net_
                                      : client_net_owned_.get()) {}

SimTransport::~SimTransport() = default;

std::size_t SimTransport::add_machine() {
  machines_.push_back(
      client_net_->add_nic("cm" + std::to_string(machines_.size()), nullptr));
  return machines_.size() - 1;
}

void SimTransport::register_node(net::NodeAddress addr,
                                 MessageHandler on_message,
                                 CrashHandler on_crash, TimerHandler on_timer,
                                 LinkReadyHandler on_link_ready) {
  if (const Node* old = find(addr); old != nullptr && old->up) {
    throw std::logic_error("SimTransport: node " + std::to_string(addr.id) +
                           " is already registered and up");
  }
  auto n = std::make_unique<Node>();
  n->addr = addr;
  n->on_message = std::move(on_message);
  n->on_crash = std::move(on_crash);
  n->on_timer = std::move(on_timer);
  n->on_link_ready = std::move(on_link_ready);
  if (addr.kind == Kind::kServer) {
    const std::string label = "s" + std::to_string(addr.id);
    n->nic = server_net_.add_nic(label + ".ring", nullptr);
    n->client_nic = opts_.shared_network
                        ? n->nic
                        : client_net_->add_nic(label + ".client", nullptr);
  } else {
    const auto it = placement_.find(addr.id);
    n->nic = machines_[it != placement_.end() ? it->second : add_machine()];
  }
  current_[addr] = n.get();
  nodes_.push_back(std::move(n));
}

SimTransport::Node* SimTransport::find(net::NodeAddress addr) const {
  const auto it = current_.find(addr);
  return it == current_.end() ? nullptr : it->second;
}

void SimTransport::send(net::NodeAddress from, net::NodeAddress to,
                        net::PayloadPtr msg) {
  Node* src = find(from);
  Node* dst = find(to);
  if (src == nullptr || dst == nullptr || !src->up) return;
  const bool from_server = from.kind == Kind::kServer;
  if (to.kind == Kind::kServer) {
    if (from_server) {
      transmit(server_net_, src->nic, dst->nic, std::move(msg), *dst, from);
    } else {
      transmit(*client_net_, src->nic, dst->client_nic, std::move(msg), *dst,
               from);
    }
  } else if (!from_server) {
    transmit(*client_net_, src->nic, dst->nic, std::move(msg), *dst, from);
  } else if (opts_.shared_network && src->on_link_ready) {
    // One NIC for everything: replies share the paced transmit slots with
    // ring traffic (see pump()).
    src->replies.emplace_back(static_cast<ClientId>(to.id), std::move(msg));
    pump(*src);
  } else {
    transmit_reply(*src, static_cast<ClientId>(to.id), std::move(msg));
  }
}

void SimTransport::transmit(Network& net, NicId src, NicId dst,
                            net::PayloadPtr msg, Node& to,
                            net::NodeAddress from) {
  net.transmit(src, dst, std::move(msg), [&to, from](net::PayloadPtr m) {
    if (!to.up) return;
    if (m->kind() == ClientEnvelope::kKind) {
      net::PayloadPtr inner = static_cast<const ClientEnvelope&>(*m).inner;
      to.on_message(from, std::move(inner));
    } else {
      to.on_message(from, std::move(m));
    }
  });
}

void SimTransport::transmit_reply(Node& server, ClientId client,
                                  net::PayloadPtr msg) {
  Node* dst = find(net::NodeAddress::client(client));
  if (dst == nullptr) return;
  // The envelope names the *global* server id: that is what sessions report
  // as served_by and what identifies the serving ring to the checkers.
  transmit(*client_net_, server.client_nic, dst->nic,
           net::make_payload<ClientEnvelope>(
               client, static_cast<ProcessId>(server.addr.id), std::move(msg)),
           *dst, server.addr);
}

void SimTransport::execute(net::NodeAddress node, std::function<void()> fn) {
  if (const Node* n = find(node); n != nullptr && n->up) fn();
}

void SimTransport::pull_egress(net::NodeAddress node) {
  if (Node* n = find(node); n != nullptr && node.kind == Kind::kServer) {
    pump(*n);
  }
}

void SimTransport::pump(Node& n) {
  if (!n.up || n.pump_scheduled) return;
  const double free_at = server_net_.tx_free_at(n.nic);
  if (free_at > sim_.now()) {
    schedule_pump(n, free_at);
    return;
  }
  const auto pull = [&n] { return n.on_link_ready && n.on_link_ready(); };
  const auto reply = [this, &n] {
    if (n.replies.empty()) return false;
    auto [client, msg] = std::move(n.replies.front());
    n.replies.pop_front();
    transmit_reply(n, client, std::move(msg));
    return true;
  };
  const bool sent = n.prefer_reply ? (reply() || pull()) : (pull() || reply());
  n.prefer_reply = !n.prefer_reply;
  if (sent) schedule_pump(n, server_net_.tx_free_at(n.nic));
}

void SimTransport::schedule_pump(Node& n, double at) {
  n.pump_scheduled = true;
  sim_.schedule_at(at, [this, &n] {
    n.pump_scheduled = false;
    pump(n);
  });
}

void SimTransport::arm_timer(net::NodeAddress addr, double delay_s,
                             std::uint64_t token) {
  if (Node* n = find(addr); n != nullptr) {
    sim_.schedule(delay_s, [n, token] {
      if (n->up && n->on_timer) n->on_timer(token);
    });
  }
}

void SimTransport::crash(net::NodeAddress addr) {
  Node* n = find(addr);
  if (n == nullptr || !n->up) return;
  n->up = false;
  if (addr.kind != Kind::kServer) return;
  server_net_.disable(n->nic);
  if (!opts_.shared_network) client_net_->disable(n->client_nic);
  sim_.schedule(opts_.detection_delay_s,
                [this, p = static_cast<ProcessId>(addr.id)] {
                  for (const auto& [a, node] : current_) {
                    if (node->up && node->on_crash) node->on_crash(p);
                  }
                });
}

bool SimTransport::is_up(net::NodeAddress addr) const {
  const Node* n = find(addr);
  return n != nullptr && n->up;
}

bool SimTransport::wait_quiescent(double /*timeout_s*/) {
  sim_.run_to_quiescence();
  return true;
}

std::uint64_t SimTransport::total_transmissions() const {
  return server_net_.total_messages_sent() +
         (client_net_owned_ ? client_net_owned_->total_messages_sent() : 0);
}

std::uint64_t SimTransport::total_bytes_sent() const {
  return server_net_.total_bytes_sent() +
         (client_net_owned_ ? client_net_owned_->total_bytes_sent() : 0);
}

std::vector<obs::LinkCounters> SimTransport::link_counters() const {
  std::vector<obs::LinkCounters> out = server_net_.link_counters();
  if (client_net_owned_) {
    for (obs::LinkCounters& c : client_net_owned_->link_counters()) {
      out.push_back(std::move(c));
    }
  }
  return out;
}

obs::LinkCounters SimTransport::ring_link(ProcessId global) const {
  const Node& n = *find(net::NodeAddress::server(global));
  return obs::LinkCounters{"", server_net_.nic_messages_sent(n.nic),
                           server_net_.nic_bytes_sent(n.nic)};
}

}  // namespace hts::sim
