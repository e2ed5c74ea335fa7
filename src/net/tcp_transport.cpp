#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hts::net {

namespace {

/// Process-wide port registry for ephemeral mode (base_port == 0): each
/// listener publishes the port the kernel picked. Only meaningful when the
/// whole deployment shares one process, which is exactly when ephemeral
/// mode is allowed.
sync::Mutex g_port_mu;
std::map<NodeAddress, std::uint16_t>& ephemeral_ports()
    HTS_REQUIRES(g_port_mu) {
  static std::map<NodeAddress, std::uint16_t> ports;
  return ports;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  // The protocol's batches are latency-sensitive trains; never Nagle them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return sa;
}

}  // namespace

TcpTransport::Conn::~Conn() {
  if (!closed && fd >= 0) ::close(fd);
}

TcpTransport::Node::~Node() {
  if (listen_fd >= 0) ::close(listen_fd);
}

TcpTransport::TcpTransport(Options opts)
    : LoopTransport(opts.detection_delay_s), opts_(std::move(opts)) {
  if (!opts_.encode || !opts_.decode) {
    throw std::invalid_argument("TcpTransport: encode/decode hooks required");
  }
}

TcpTransport::~TcpTransport() {
  stop();
  if (opts_.base_port != 0) return;
  const std::vector<NodeLoop*> nodes = snapshot_nodes();
  const sync::MutexLock lock(g_port_mu);
  for (const NodeLoop* n : nodes) ephemeral_ports().erase(n->addr());
}

std::uint16_t TcpTransport::port_of(NodeAddress addr) const {
  if (opts_.base_port != 0) {
    const auto bias =
        addr.kind == NodeAddress::Kind::kServer ? 0 : kClientPortBias;
    assert(addr.id < kClientPortBias && "node id too large for port scheme");
    return static_cast<std::uint16_t>(opts_.base_port + bias + addr.id);
  }
  const sync::MutexLock lock(g_port_mu);
  auto it = ephemeral_ports().find(addr);
  return it == ephemeral_ports().end() ? 0 : it->second;
}

std::unique_ptr<NodeLoop> TcpTransport::make_node(NodeAddress addr,
                                                  MessageHandler on_message,
                                                  CrashHandler on_crash,
                                                  TimerHandler on_timer) {
  auto node = std::make_unique<Node>(this, addr, std::move(on_message),
                                     std::move(on_crash), std::move(on_timer));
  // Bind the node's listener immediately (before start()) so peers that
  // start earlier can already dial us — the mesh retry loop depends on
  // listeners existing as soon as the hosting process registers its nodes.
  // Until the loop runs, the kernel's accept queue holds their dials.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("TcpTransport: socket() failed");
  node->listen_fd = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa =
      loopback_addr(opts_.base_port == 0 ? 0 : port_of(addr));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    throw std::runtime_error("TcpTransport: bind failed for node port " +
                             std::to_string(ntohs(sa.sin_port)) + ": " +
                             std::strerror(errno));
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  node->listen_port = ntohs(sa.sin_port);
  if (::listen(fd, SOMAXCONN) != 0) {
    throw std::runtime_error("TcpTransport: listen failed");
  }
  set_nonblocking(fd);
  // Tags: the node itself is its listener, anything else a Conn.
  node->watch(EPOLL_CTL_ADD, fd, EPOLLIN, static_cast<NodeLoop*>(node.get()));
  if (opts_.base_port == 0) {
    const sync::MutexLock lock(g_port_mu);
    ephemeral_ports()[addr] = node->listen_port;
  }
  return node;
}

void TcpTransport::on_start(const std::vector<NodeLoop*>& nodes) {
  // Failure-detection mesh: every local node eagerly dials every server in
  // the deployment, so a peer's death breaks at least one connection into
  // this process even if no data was ever exchanged. Peer processes may
  // still be starting — retry with a generous deadline. The loops are not
  // running yet, so this thread still owns every node's connections.
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(15.0);
  for (NodeLoop* loop : nodes) {
    Node& n = static_cast<Node&>(*loop);
    for (const ProcessId p : opts_.servers) {
      const NodeAddress peer = NodeAddress::server(p);
      if (peer == n.addr()) continue;
      while (egress(n, peer) == nullptr) {
        if (clk::steady_now() >= deadline) {
          throw std::runtime_error("TcpTransport: mesh dial to server " +
                                   std::to_string(p) + " timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }
  mesh_formed_.store(true, std::memory_order_release);
}

void TcpTransport::send(NodeAddress from, NodeAddress to, PayloadPtr msg) {
  NodeLoop* src = find(from);
  if (src == nullptr || !src->up()) return;
  if (from == to) {
    count_tx(src, *msg);
    src->deliver(from, std::move(msg));
  } else if (src->on_loop()) {
    stage(static_cast<Node&>(*src), to, *msg);
  } else {
    src->post_send(to, std::move(msg));
  }
}

// ------------------------------------------------------------ loop hooks

void TcpTransport::on_io(NodeLoop& loop, void* tag, std::uint32_t events) {
  Node& n = static_cast<Node&>(loop);
  if (tag == &loop) {
    on_accept(n);
    return;
  }
  auto& c = *static_cast<Conn*>(tag);
  if (c.closed) return;
  if ((events & EPOLLIN) != 0) {
    on_readable(n, c);
  } else if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn(n, c, /*attribute_break=*/true);
  }
  if (!c.closed && (events & EPOLLOUT) != 0) flush(n, c);
}

bool TcpTransport::before_block(NodeLoop& loop) {
  // Everything the handlers staged leaves in one sendmsg per connection.
  Node& n = static_cast<Node&>(loop);
  for (std::size_t i = 0; i < n.dirty.size(); ++i) flush(n, *n.dirty[i]);
  n.dirty.clear();
  return n.blocked != 0;
}

void TcpTransport::on_send(NodeLoop& n, NodeAddress to, const Payload& msg) {
  stage(static_cast<Node&>(n), to, msg);
}

void TcpTransport::on_sever(NodeLoop& loop) {
  // Crash: close every connection the node owns without a bye — remote
  // processes see a raw break; local peers see EOF on their end. Frames
  // staged for a local peer but never fully written are settled here, as
  // the peer will never read them.
  Node& n = static_cast<Node&>(loop);
  for (const auto& c : n.conns) {
    if (c->closed) continue;
    if (c->peer != nullptr) {
      c->peer->settle(static_cast<std::uint64_t>(
          std::count_if(c->frame_ends.begin(), c->frame_ends.end(),
                        [&](std::size_t end) { return end > c->out_skip; })));
    }
    close_conn(n, *c, /*attribute_break=*/false);
  }
  if (n.listen_fd >= 0) {
    ::close(n.listen_fd);
    n.listen_fd = -1;
  }
}

void TcpTransport::on_stop(NodeLoop& loop) {
  // Graceful stop: best-effort flush, then a bye frame (len == 0) on every
  // live connection so peers see a close, not a crash. The bye must not
  // interleave with a torn frame: if the socket stays full the peer would
  // consume the bye's zeros as the frame's body and misread the close as a
  // crash — close without a bye instead, a break being the honest signal
  // for a stream we could not deliver.
  Node& n = static_cast<Node&>(loop);
  const char bye[4] = {0, 0, 0, 0};
  for (const auto& c : n.conns) {
    for (int attempt = 0; attempt < 200 && !c->closed && !c->out.empty();
         ++attempt) {
      flush(n, *c);
      if (!c->out.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (c->closed) continue;
    if (c->out.empty() && n.up()) {
      [[maybe_unused]] const ssize_t w =
          ::send(c->fd, bye, sizeof(bye), MSG_NOSIGNAL);
    }
    close_conn(n, *c, /*attribute_break=*/false);
  }
  if (n.listen_fd >= 0) {
    ::close(n.listen_fd);
    n.listen_fd = -1;
  }
}

// ---------------------------------------------------------------- egress

void TcpTransport::stage(Node& n, NodeAddress to, const Payload& msg) {
  Conn* c = egress(n, to);
  // Messages to the dead (or the unreachable) are lost.
  if (c == nullptr || (c->peer != nullptr && !c->peer->up())) return;
  count_tx(&n, msg);
  const FrameWriter::Mark m = c->out.begin_frame();
  opts_.encode(msg, c->out);
  c->out.end_frame(m);
  if (c->peer != nullptr) {
    c->peer->expect();
    c->frame_ends.push_back(c->out.size());
  }
  if (!c->dirty) {
    c->dirty = true;
    n.dirty.push_back(c);
  }
}

TcpTransport::Conn* TcpTransport::egress(Node& n, NodeAddress to) {
  if (auto it = n.egress.find(to); it != n.egress.end()) {
    return it->second->closed ? nullptr : it->second;
  }
  // The failure detector's verdict stands in for a dial to the dead.
  if (to.kind == NodeAddress::Kind::kServer &&
      crash_detected(static_cast<ProcessId>(to.id))) {
    return nullptr;
  }
  return dial(n, to);
}

TcpTransport::Conn* TcpTransport::dial(Node& n, NodeAddress to) {
  const std::uint16_t port = port_of(to);
  if (port == 0) return nullptr;  // unknown peer (ephemeral registry miss)

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in sa = loopback_addr(port);
  // Blocking connect: on loopback this either completes or refuses fast,
  // and doing it synchronously gives the mesh retry loop (and lazy dials)
  // an immediate verdict instead of an async SO_ERROR dance.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    // Refused once the mesh has formed means the peer is gone: a break,
    // detected. During mesh formation a refusal just means the peer has
    // not bound its listener yet — start()'s retry loop handles it.
    if (mesh_formed_.load(std::memory_order_acquire) &&
        to.kind == NodeAddress::Kind::kServer) {
      schedule_crash_notice(static_cast<ProcessId>(to.id));
    }
    return nullptr;
  }
  Conn& c = adopt(n, fd);
  c.remote = to;
  c.peer = find(to);
  c.have_preamble = true;
  c.out.u32(kMagic);
  c.out.u8(static_cast<std::uint8_t>(n.addr().kind));
  c.out.u64(n.addr().id);
  c.out.u8(static_cast<std::uint8_t>(to.kind));
  c.out.u64(to.id);
  c.dirty = true;
  n.dirty.push_back(&c);
  n.egress[to] = &c;
  return &c;
}

TcpTransport::Conn& TcpTransport::adopt(Node& n, int fd) {
  set_nonblocking(fd);
  set_nodelay(fd);
  n.conns.push_back(std::make_unique<Conn>());
  Conn& c = *n.conns.back();
  c.fd = fd;
  n.watch(EPOLL_CTL_ADD, fd, EPOLLIN, &c);
  return c;
}

void TcpTransport::flush(Node& n, Conn& c) {
  c.dirty = false;
  if (c.closed) return;
  if (!n.up()) return;  // crash pending sever
  while (!c.out.empty()) {
    const std::vector<iovec>& iov = c.out.iov(c.out_skip);
    msghdr mh{};
    mh.msg_iov = const_cast<iovec*>(iov.data());
    mh.msg_iovlen = std::min<std::size_t>(iov.size(), 1024);
    const ssize_t sent = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          c.want_write = true;
          ++n.blocked;
          n.watch(EPOLL_CTL_MOD, c.fd, EPOLLIN | EPOLLOUT, &c);
        }
        return;
      }
      close_conn(n, c, /*attribute_break=*/true);
      return;
    }
    c.out_skip += static_cast<std::size_t>(sent);
    if (c.out_skip == c.out.size()) {
      c.out.clear();
      c.out_skip = 0;
      c.frame_ends.clear();
    }
  }
  if (c.want_write) {
    c.want_write = false;
    --n.blocked;
    n.watch(EPOLL_CTL_MOD, c.fd, EPOLLIN, &c);
  }
}

// --------------------------------------------------------------- ingress

void TcpTransport::on_accept(Node& n) {
  for (;;) {
    const int fd = ::accept4(n.listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: wait for epoll
    (void)adopt(n, fd);  // the remote address arrives with the preamble
  }
}

void TcpTransport::on_readable(Node& n, Conn& c) {
  char buf[64 * 1024];
  const auto on_frame = [this, &n, &c](std::string_view body) {
    if (body.empty()) {
      c.remote_bye = true;
    } else {
      deliver_frame(n, c, body);
    }
  };
  for (;;) {
    const ssize_t got = ::read(c.fd, buf, sizeof(buf));
    if (got == 0) {
      close_conn(n, c, /*attribute_break=*/true);
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(n, c, /*attribute_break=*/true);
      return;
    }
    std::string_view chunk(buf, static_cast<std::size_t>(got));
    // A short read emptied the socket: stop without the read() that would
    // only return EAGAIN (epoll is level-triggered, so a late byte still
    // wakes the loop).
    const bool drained = chunk.size() < sizeof(buf);
    if (!c.have_preamble) {
      c.preamble_buf.append(chunk.data(), chunk.size());
      if (c.preamble_buf.size() < kPreambleBytes) {
        if (drained) return;
        continue;
      }
      Decoder d(std::string_view(c.preamble_buf).substr(0, kPreambleBytes));
      if (d.u32() != kMagic) {
        close_conn(n, c, /*attribute_break=*/false);
        return;
      }
      c.remote.kind = static_cast<NodeAddress::Kind>(d.u8());
      c.remote.id = d.u64();
      (void)d.u8();  // destination: this listener's node by construction
      (void)d.u64();
      c.peer = find(c.remote);
      c.have_preamble = true;
      chunk = std::string_view(c.preamble_buf).substr(kPreambleBytes);
    }
    const bool ok = c.decoder.feed(chunk, on_frame);
    c.preamble_buf.clear();
    if (!ok) {
      close_conn(n, c, /*attribute_break=*/true);
      return;
    }
    if (drained) return;
  }
}

void TcpTransport::deliver_frame(Node& n, const Conn& c,
                                 std::string_view body) {
  // Messages to the dead are lost (the frame still counts as consumed).
  if (n.up()) {
    PayloadPtr msg;
    try {
      msg = opts_.decode(body);
    } catch (const std::exception&) {
      msg = nullptr;  // malformed frame: drop
    }
    if (msg != nullptr) n.dispatch(c.remote, std::move(msg), body.size());
  }
  if (c.peer != nullptr) n.settle(1);
}

void TcpTransport::close_conn(Node& n, Conn& c, bool attribute_break) {
  if (c.closed) return;
  c.closed = true;
  n.watch(EPOLL_CTL_DEL, c.fd, 0, &c);
  ::close(c.fd);
  if (c.want_write) {
    c.want_write = false;
    --n.blocked;
  }
  // A break without a bye is a crash — the paper's failure detector. A
  // connection whose preamble never arrived has no known remote to blame.
  if (attribute_break && !c.remote_bye && c.have_preamble &&
      n.up() && !stopping() && c.remote.kind == NodeAddress::Kind::kServer) {
    schedule_crash_notice(static_cast<ProcessId>(c.remote.id));
  }
}

}  // namespace hts::net
