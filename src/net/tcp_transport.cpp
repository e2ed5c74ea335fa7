#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
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

/// The node whose loop runs on this thread, and its transport (both null
/// off every loop).
thread_local void* tl_loop_node = nullptr;
thread_local const void* tl_loop_owner = nullptr;

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

/// Timer heap order: std::*_heap keep the earliest (deadline, arrival) on
/// top under this "later than" comparison.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

void epoll_watch(int epoll_fd, int op, int fd, std::uint32_t events,
                 void* tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  ::epoll_ctl(epoll_fd, op, fd, &ev);
}

}  // namespace

TcpTransport::Conn::~Conn() {
  if (!closed && fd >= 0) ::close(fd);
}

TcpTransport::Node::~Node() {
  for (const int fd : {listen_fd, epoll_fd, wake_fd}) {
    if (fd >= 0) ::close(fd);
  }
}

TcpTransport::TcpTransport(Options opts) : opts_(std::move(opts)) {
  if (!opts_.encode || !opts_.decode) {
    throw std::invalid_argument("TcpTransport: encode/decode hooks required");
  }
}

TcpTransport::~TcpTransport() {
  stop();
  if (opts_.base_port != 0) return;
  const std::vector<Node*> nodes = snapshot_nodes();
  const sync::MutexLock lock(g_port_mu);
  for (const Node* n : nodes) ephemeral_ports().erase(n->addr);
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

void TcpTransport::register_node(NodeAddress addr, MessageHandler on_message,
                                 CrashHandler on_crash,
                                 TimerHandler on_timer) {
  auto node = std::make_unique<Node>();
  node->addr = addr;
  node->on_message = std::move(on_message);
  node->on_crash = std::move(on_crash);
  node->on_timer = std::move(on_timer);

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
  node->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  node->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (node->epoll_fd < 0 || node->wake_fd < 0) {
    throw std::runtime_error("TcpTransport: epoll/eventfd setup failed");
  }
  // Tags: nullptr is the wake fd, the node itself its listener, anything
  // else a Conn.
  epoll_watch(node->epoll_fd, EPOLL_CTL_ADD, node->wake_fd, EPOLLIN, nullptr);
  epoll_watch(node->epoll_fd, EPOLL_CTL_ADD, fd, EPOLLIN, node.get());
  if (opts_.base_port == 0) {
    const sync::MutexLock lock(g_port_mu);
    ephemeral_ports()[addr] = node->listen_port;
  }

  Node* raw = node.get();
  {
    const sync::WriterLock lock(registry_mu_);
    assert(!by_addr_.contains(addr));
    by_addr_[addr] = raw;
    nodes_.push_back(std::move(node));
  }
  if (started_.load(std::memory_order_acquire) &&
      !stopping_.load(std::memory_order_acquire)) {
    // Live registration (ring spawn during reconfiguration).
    raw->thread = std::thread([this, raw] { run_loop(*raw); });
  }
}

void TcpTransport::start() {
  assert(!started_.load(std::memory_order_acquire));
  started_.store(true, std::memory_order_release);

  // Failure-detection mesh: every local node eagerly dials every server in
  // the deployment, so a peer's death breaks at least one connection into
  // this process even if no data was ever exchanged. Peer processes may
  // still be starting — retry with a generous deadline. The loops are not
  // running yet, so this thread still owns every node's connections.
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(15.0);
  const std::vector<Node*> nodes = snapshot_nodes();
  for (Node* n : nodes) {
    for (const ProcessId p : opts_.servers) {
      const NodeAddress peer = NodeAddress::server(p);
      if (peer == n->addr) continue;
      while (egress(*n, peer) == nullptr) {
        if (clk::steady_now() >= deadline) {
          throw std::runtime_error("TcpTransport: mesh dial to server " +
                                   std::to_string(p) + " timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }
  mesh_formed_.store(true, std::memory_order_release);
  for (Node* n : nodes) {
    n->thread = std::thread([this, n] { run_loop(*n); });
  }
}

void TcpTransport::stop() {
  if (!started_.load(std::memory_order_acquire) ||
      stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const std::vector<Node*> nodes = snapshot_nodes();
  const std::uint64_t one = 1;
  for (Node* n : nodes) {
    [[maybe_unused]] const ssize_t w = ::write(n->wake_fd, &one, sizeof(one));
  }
  for (Node* n : nodes) {
    if (n->thread.joinable()) n->thread.join();
  }
}

TcpTransport::Node* TcpTransport::find(NodeAddress addr) const {
  // A handler addressing its own node skips the registry lock.
  if (tl_loop_owner == this) {
    auto* self = static_cast<Node*>(tl_loop_node);
    if (self->addr == addr) return self;
  }
  const sync::ReaderLock lock(registry_mu_);
  auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? nullptr : it->second;
}

std::vector<TcpTransport::Node*> TcpTransport::snapshot_nodes() const {
  const sync::ReaderLock lock(registry_mu_);
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

bool TcpTransport::on_loop(const Node& n) const { return tl_loop_node == &n; }

void TcpTransport::post(Node& n, Mail mail) {
  bool was_empty = false;
  {
    const sync::MutexLock lock(n.mu);
    was_empty = n.mailbox.empty();
    n.mailbox.push_back(std::move(mail));
  }
  // One wake per batch: the loop swaps the whole mailbox out per wake-up.
  if (was_empty) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t w = ::write(n.wake_fd, &one, sizeof(one));
  }
}

void TcpTransport::add_timer(Node& n, Timer t) {
  if (!on_loop(n)) {
    post(n, Mail{Mail::Kind::kTimer, {}, nullptr, t});
    return;
  }
  t.seq = n.timer_seq++;
  n.timers.push_back(t);
  std::push_heap(n.timers.begin(), n.timers.end(), kLater);
}

void TcpTransport::send(NodeAddress from, NodeAddress to, PayloadPtr msg) {
  Node* src = find(from);
  if (src == nullptr || !src->up.load(std::memory_order_acquire)) return;
  if (from == to) {
    // Self-send: harness control payloads are not wire types; deliver
    // through the mailbox (same accounting as InMemTransport).
    count_tx(*src, *msg);
    post(*src, Mail{Mail::Kind::kMessage, from, std::move(msg), {}});
  } else if (on_loop(*src)) {
    stage(*src, to, *msg);
  } else {
    post(*src, Mail{Mail::Kind::kSend, to, std::move(msg), {}});
  }
}

void TcpTransport::arm_timer(NodeAddress addr, double delay_s,
                             std::uint64_t token) {
  Node* n = find(addr);
  if (n == nullptr) return;
  add_timer(*n, Timer{clk::steady_now() + clk::seconds_to_duration(delay_s),
                      0, token, kNoProcess});
}

void TcpTransport::crash(NodeAddress addr) {
  assert(addr.kind == NodeAddress::Kind::kServer &&
         "only server crashes are detected by peers");
  if (Node* n = find(addr); n != nullptr) {
    // exchange() claims the up→down transition exactly once. The loop
    // severs the node's own connections (and nothing else) at its next
    // wake-up; until then `up` already stops every send and delivery.
    if (!n->up.exchange(false, std::memory_order_acq_rel)) return;
    post(*n, Mail{Mail::Kind::kCrash, {}, nullptr, {}});
  }
  schedule_crash_notice(static_cast<ProcessId>(addr.id));
}

bool TcpTransport::is_up(NodeAddress addr) const {
  if (const Node* n = find(addr); n != nullptr) {
    return n->up.load(std::memory_order_acquire);
  }
  if (addr.kind == NodeAddress::Kind::kServer) {
    const sync::MutexLock lock(crash_mu_);
    return !crash_detected_.contains(static_cast<ProcessId>(addr.id));
  }
  return true;
}

void TcpTransport::schedule_crash_notice(ProcessId crashed) {
  {
    const sync::MutexLock lock(crash_mu_);
    if (!crash_detected_.insert(crashed).second) return;  // already noticed
  }
  const Timer t{
      clk::steady_now() + clk::seconds_to_duration(opts_.detection_delay_s), 0,
      0, crashed};
  for (Node* n : snapshot_nodes()) {
    if (!n->up.load(std::memory_order_acquire)) continue;
    pending_notices_.fetch_add(1, std::memory_order_acq_rel);
    add_timer(*n, t);
  }
}

// ------------------------------------------------------------ node loop

void TcpTransport::run_loop(Node& n) {
  tl_loop_node = &n;
  tl_loop_owner = this;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // End of the previous iteration: everything the handlers staged leaves
    // in one sendmsg per connection before the loop blocks.
    for (std::size_t i = 0; i < n.dirty.size(); ++i) flush(n, *n.dirty[i]);
    n.dirty.clear();
    n.busy.store(n.blocked != 0, std::memory_order_release);

    int timeout_ms = -1;
    if (!n.timers.empty()) {
      const auto wait = n.timers.front().at - clk::steady_now();
      const auto ms =
          std::chrono::ceil<std::chrono::milliseconds>(wait).count();
      timeout_ms = static_cast<int>(std::clamp<decltype(ms)>(ms, 0, INT_MAX));
    }
    const int nev = ::epoll_wait(n.epoll_fd, events, kMaxEvents, timeout_ms);
    n.busy.store(true, std::memory_order_release);
    if (nev < 0 && errno != EINTR) break;
    for (int i = 0; i < nev; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == nullptr) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(n.wake_fd, &drained, sizeof(drained));
        drain_mailbox(n);
        continue;
      }
      if (tag == &n) {
        on_accept(n);
        continue;
      }
      auto& c = *static_cast<Conn*>(tag);
      if (c.closed) continue;
      if ((events[i].events & EPOLLIN) != 0) {
        on_readable(n, c);
      } else if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(n, c, /*attribute_break=*/true);
      }
      if (!c.closed && (events[i].events & EPOLLOUT) != 0) flush(n, c);
    }
    fire_timers(n);
  }
  teardown(n);
}

void TcpTransport::drain_mailbox(Node& n) {
  {
    // Swapping keeps both vectors' capacity: no allocation in steady state.
    const sync::MutexLock lock(n.mu);
    n.inbox.swap(n.mailbox);
  }
  for (Mail& m : n.inbox) {
    switch (m.kind) {
      case Mail::Kind::kMessage:
        if (n.up.load(std::memory_order_acquire)) {
          n.on_message(m.peer, std::move(m.msg));
        }
        break;
      case Mail::Kind::kSend:
        if (n.up.load(std::memory_order_acquire)) stage(n, m.peer, *m.msg);
        break;
      case Mail::Kind::kTimer:
        add_timer(n, m.timer);
        break;
      case Mail::Kind::kCrash:
        sever(n);
        break;
    }
  }
  n.inbox.clear();
}

void TcpTransport::fire_timers(Node& n) {
  const clk::SteadyTime now = clk::steady_now();
  while (!n.timers.empty() && n.timers.front().at <= now) {
    std::pop_heap(n.timers.begin(), n.timers.end(), kLater);
    const Timer t = n.timers.back();
    n.timers.pop_back();
    const bool up = n.up.load(std::memory_order_acquire);
    if (t.crashed != kNoProcess) {
      if (up && n.on_crash) n.on_crash(t.crashed);
      pending_notices_.fetch_sub(1, std::memory_order_acq_rel);
    } else if (up && n.on_timer) {
      n.on_timer(t.token);
    }
  }
}

void TcpTransport::sever(Node& n) {
  // Crash: close every connection the node owns without a bye — remote
  // processes see a raw break; local peers see EOF on their end. A crashed
  // node's loop idles until stop(); fired notices still settle the count.
  for (const auto& c : n.conns) {
    if (!c->closed) close_conn(n, *c, /*attribute_break=*/false);
  }
  if (n.listen_fd >= 0) {
    ::close(n.listen_fd);
    n.listen_fd = -1;
  }
}

void TcpTransport::teardown(Node& n) {
  // Graceful stop: best-effort flush, then a bye frame (len == 0) on every
  // live connection so peers see a close, not a crash. The bye must not
  // interleave with a torn frame: if the socket stays full the peer would
  // consume the bye's zeros as the frame's body and misread the close as a
  // crash — close without a bye instead, a break being the honest signal
  // for a stream we could not deliver.
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
    if (c->out.empty() && n.up.load(std::memory_order_acquire)) {
      [[maybe_unused]] const ssize_t w =
          ::send(c->fd, bye, sizeof(bye), MSG_NOSIGNAL);
    }
    close_conn(n, *c, /*attribute_break=*/false);
  }
  if (n.listen_fd >= 0) {
    ::close(n.listen_fd);
    n.listen_fd = -1;
  }
  tl_loop_node = nullptr;
  tl_loop_owner = nullptr;
}

// ---------------------------------------------------------------- egress

void TcpTransport::count_tx(Node& src, const Payload& msg) {
  const std::size_t bytes = msg.wire_size();
  src.tx_messages.fetch_add(1, std::memory_order_relaxed);
  src.tx_bytes.fetch_add(bytes, std::memory_order_relaxed);
  transmissions_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
}

void TcpTransport::stage(Node& n, NodeAddress to, const Payload& msg) {
  Conn* c = egress(n, to);
  // Messages to the dead (or the unreachable) are lost.
  if (c == nullptr ||
      (c->peer != nullptr && !c->peer->up.load(std::memory_order_acquire))) {
    return;
  }
  count_tx(n, msg);
  if (c->peer != nullptr) {
    local_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  const FrameWriter::Mark m = c->out.begin_frame();
  opts_.encode(msg, c->out);
  c->out.end_frame(m);
  if (!c->dirty) {
    c->dirty = true;
    n.dirty.push_back(c);
  }
}

TcpTransport::Conn* TcpTransport::egress(Node& n, NodeAddress to) {
  if (auto it = n.egress.find(to); it != n.egress.end()) {
    return it->second->closed ? nullptr : it->second;
  }
  if (to.kind == NodeAddress::Kind::kServer) {
    // The failure detector's verdict stands in for a dial to the dead.
    const sync::MutexLock lock(crash_mu_);
    if (crash_detected_.contains(static_cast<ProcessId>(to.id))) {
      return nullptr;
    }
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
  c.out.u8(static_cast<std::uint8_t>(n.addr.kind));
  c.out.u64(n.addr.id);
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
  epoll_watch(n.epoll_fd, EPOLL_CTL_ADD, fd, EPOLLIN, &c);
  return c;
}

void TcpTransport::flush(Node& n, Conn& c) {
  c.dirty = false;
  if (c.closed) return;
  if (!n.up.load(std::memory_order_acquire)) return;  // crash pending sever
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
          epoll_watch(n.epoll_fd, EPOLL_CTL_MOD, c.fd, EPOLLIN | EPOLLOUT, &c);
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
    }
  }
  if (c.want_write) {
    c.want_write = false;
    --n.blocked;
    epoll_watch(n.epoll_fd, EPOLL_CTL_MOD, c.fd, EPOLLIN, &c);
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
  if (n.up.load(std::memory_order_acquire)) {
    PayloadPtr msg;
    try {
      msg = opts_.decode(body);
    } catch (const std::exception&) {
      msg = nullptr;  // malformed frame: drop
    }
    if (msg != nullptr) {
      n.rx_messages.fetch_add(1, std::memory_order_relaxed);
      n.rx_bytes.fetch_add(body.size(), std::memory_order_relaxed);
      n.on_message(c.remote, std::move(msg));
    }
  }
  if (c.peer != nullptr) {
    local_frames_delivered_.fetch_add(1, std::memory_order_release);
  }
}

void TcpTransport::close_conn(Node& n, Conn& c, bool attribute_break) {
  if (c.closed) return;
  c.closed = true;
  ::epoll_ctl(n.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  if (c.want_write) {
    c.want_write = false;
    --n.blocked;
  }
  // A break without a bye is a crash — the paper's failure detector. A
  // connection whose preamble never arrived has no known remote to blame.
  if (attribute_break && !c.remote_bye && c.have_preamble &&
      n.up.load(std::memory_order_acquire) &&
      !stopping_.load(std::memory_order_acquire) &&
      c.remote.kind == NodeAddress::Kind::kServer) {
    schedule_crash_notice(static_cast<ProcessId>(c.remote.id));
  }
}

// --------------------------------------------------------------- accounting

std::vector<obs::LinkCounters> TcpTransport::link_counters() const {
  std::vector<obs::LinkCounters> out;
  for (const Node* n : snapshot_nodes()) {
    const char prefix = n->addr.kind == NodeAddress::Kind::kServer ? 's' : 'c';
    out.push_back(obs::LinkCounters{
        prefix + std::to_string(n->addr.id),
        n->tx_messages.load(std::memory_order_relaxed),
        n->tx_bytes.load(std::memory_order_relaxed),
        n->rx_messages.load(std::memory_order_relaxed),
        n->rx_bytes.load(std::memory_order_relaxed)});
  }
  return out;
}

bool TcpTransport::wait_quiescent(double timeout_s) {
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(timeout_s);
  for (;;) {
    // The frame balance is read before and after the node sweep: a handler
    // that ran in between either sent (the counts move) or was seen busy.
    const std::uint64_t delivered =
        local_frames_delivered_.load(std::memory_order_acquire);
    const std::uint64_t sent = local_frames_sent_.load(std::memory_order_acquire);
    bool quiet = sent == delivered &&
                 pending_notices_.load(std::memory_order_acquire) == 0;
    for (Node* n : snapshot_nodes()) {
      if (!quiet) break;
      {
        const sync::MutexLock lock(n->mu);
        quiet = n->mailbox.empty();
      }
      quiet = quiet && !n->busy.load(std::memory_order_acquire);
    }
    if (quiet &&
        local_frames_sent_.load(std::memory_order_acquire) == sent &&
        local_frames_delivered_.load(std::memory_order_acquire) == delivered) {
      return true;
    }
    if (clk::steady_now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace hts::net
