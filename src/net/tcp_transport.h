// Real socket transport: one run-to-completion epoll loop per node over
// loopback/LAN TCP.
//
// TcpTransport implements the same node-facing surface as InMemTransport
// (net::Transport), but every non-self send crosses a real TCP connection as
// a length-prefixed frame whose body is byte-identical to the wire codec's
// encode (golden-pinned in tests/tcp_test.cpp). One transport instance hosts
// the nodes of one OS process; a deployment is one instance per process
// (harness/proc_cluster.*) or a single instance hosting every node over
// loopback (ThreadedCluster's tcp mode). Every server's listener exists
// before any node of its deployment starts (ProcCluster binds them in the
// parent), so a refused dial always means a dead peer.
//
// Wire protocol (DESIGN.md §Transport, D12):
//   connection preamble  u32 magic 'HTS1' · u8 src_kind · u64 src_id ·
//                        u8 dst_kind · u64 dst_id     (initiator → acceptor)
//   then frames          u32 body_len · body          (body = encode bytes)
//   bye                  body_len == 0: graceful close, not a failure
// Egress rule: a node sends to a peer on the connection it dialed to that
// peer or, when it has none, on the connection the peer dialed to it,
// adopted as soon as that connection's preamble names the peer. The choice
// never changes afterwards, so each direction rides exactly one FIFO
// stream. The failure-detection mesh gives every server its own dialed
// connection to every other server, so in practice only replies move: a
// server answers a client on the connection the client dialed (its mesh
// connection, or a lazy dial to a server spawned later). A client binds no
// listener, so a send to a client that never dialed is dropped, as a send
// to an unknown node is. With request and
// reply on one connection, TCP's delayed ACK rides on the next frame the
// other way instead of costing a pure ACK segment per frame read: on
// read_proc (3 server processes, 4-vCPU VM, 27 s runs) loopback OutSegs
// per op fell from 2.56 to 1.44 and, with RingServer's register index,
// cpu_us_per_op from 52.0 to 46.0 µs (median of 10 interleaved pairs).
// A TCP break (EOF/RST) without a bye is a crash of the remote node — the
// paper's perfect failure detector, honest on a LAN where partitions are
// out of scope: surviving peers' crash handlers fire after
// `detection_delay`. A server's death breaks every connection a client
// dialed to it, shared or not.
//
// Threading: each node runs on a net::NodeLoop; this transport plugs in
// only its sockets. The node's loop owns its listener and every connection
// it accepted or dialed (watched on the loop's epoll set). A frame read off
// a socket is decoded and handed to the node's handler inline; a send() from
// the handler appends the frame to the connection's FrameWriter and marks it
// dirty, and before the loop blocks again each dirty connection is flushed
// with one sendmsg (scatter-gather over the writer's pooled segments). A
// turn of the loop (net/node_loop.h) first handles every event that is
// already ready, for up to NodeLoop::kReadyRounds non-blocking polls while
// a connection is dirty, so a frame that arrives while the loop handles the
// one before it leaves in the same flush: on write_proc (3 server
// processes, 4-vCPU VM, medians of 10 interleaved 27 s runs) loopback
// segments per op fell from 6.29 to 4.24.
// Only calls from other threads go through the loop's mailbox, each as a
// closure: an execute(), a send (staging its frame) and an arm_timer
// (pushing its timer). crash() posts nothing: it marks the node down and
// wakes the loop, which severs the node's connections itself. A socket
// node's loop always runs on epoll, a client's too, so execute() never runs
// inline here: handing a caller's submit to the loop lets one flush carry
// several callers' frames.
// Driven clients (register_driven_client) are the exception: no loop
// thread runs them. A caller drives one (drive()): its submit runs inline,
// leaves in one sendmsg, and the caller blocks in the node's own epoll_wait
// until the reply is handled, so a request and its reply cost the calling
// process no thread switch. A driven client joins no failure-detection
// mesh: it dials a server on its first send there, as a lazy dial does.
// A crash severs the node's connections without a bye; a stop flushes them
// and says bye.
//
// Layering: hts_net cannot depend on hts_core, so the codec is injected
// (Options::encode / Options::decode); the harness wires the core message
// codec in. Self-sends (from == to) bypass the socket path entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "net/frame_writer.h"
#include "net/node_loop.h"
#include "net/payload.h"

namespace hts::net {

class TcpTransport : public LoopTransport {
 public:
  /// A server's listening socket on loopback: its port, and its fd where
  /// this process holds it (-1 otherwise).
  struct Listener {
    std::uint16_t port = 0;
    int fd = -1;
  };

  struct Options {
    /// Seconds between a TCP break and the surviving nodes' crash handlers.
    double detection_delay_s = 0.05;
    /// Listeners this transport does not host: servers of other
    /// transports or processes (a port), and local servers whose listener
    /// was handed in (a port and an fd, which make_node adopts). Any other
    /// local server binds an ephemeral port of its own. Nothing else is
    /// shared: two transports in one process reach each other's servers
    /// only through these entries. A client binds no listener: nothing
    /// dials it.
    std::map<NodeAddress, Listener> listeners;
    /// Full server set of the deployment. At start() every local node
    /// dials each of these once (the failure-detection mesh): a peer's
    /// death must break at least one connection into this process even if
    /// no data was ever exchanged. A server with no known port makes
    /// start() throw.
    std::vector<ProcessId> servers;
    /// Message codec, injected by the harness (hts_net cannot see
    /// hts_core). encode must append exactly the message's wire bytes;
    /// decode parses one frame body back into a payload.
    std::function<void(const Payload&, FrameWriter&)> encode;
    std::function<PayloadPtr(std::string_view)> decode;
  };

  static constexpr std::uint32_t kMagic = 0x31535448;  // "HTS1" little-endian
  static constexpr std::size_t kPreambleBytes = 4 + 1 + 8 + 1 + 8;

  explicit TcpTransport(Options opts);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// `from` must be a node registered on this transport. Called on that
  /// node's loop thread the frame is staged directly; from any other
  /// thread a closure that stages it is posted to the node's mailbox
  /// (NodeLoop::execute). Self-sends go through the mailbox unencoded.
  void send(NodeAddress from, NodeAddress to, PayloadPtr msg) override;

  /// Registers client `id` as a driven node (file comment): registered
  /// after start(), it still gets no loop thread and dials nothing yet.
  void register_driven_client(ClientId id, MessageHandler on_message,
                              CrashHandler on_crash = nullptr,
                              TimerHandler on_timer = nullptr);
  /// Drives a client registered with register_driven_client, after
  /// start(): runs `submit` on the calling thread as the node's work, then
  /// the node's loop turns until `done()` holds (NodeLoop::drive). False
  /// when the transport stops or `deadline` passes first.
  bool drive(NodeAddress addr, const std::function<void()>& submit,
             const std::function<bool()>& done, clk::SteadyTime deadline);

  /// The port a node listens on: a node hosted here reports its own
  /// listener (0 for a client), any other node its Options::listeners
  /// entry; 0 when neither knows the node.
  [[nodiscard]] std::uint16_t port_of(NodeAddress addr) const;

  /// Binds and listens on an ephemeral loopback port (close-on-exec).
  /// Throws when the socket cannot be bound.
  static Listener listen_ephemeral();

 private:
  /// One TCP connection, dialed or accepted, owned by one node's loop
  /// thread (no lock). Either end may send frames on it once it is that
  /// end's egress to the other. Its epoll tag points at it.
  struct Conn {
    Conn() = default;
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    int fd = -1;
    NodeAddress remote;        // acceptor side learns it from the preamble
    NodeLoop* peer = nullptr;  // the remote node when it is hosted here too
    bool have_preamble = false;
    bool remote_bye = false;  // saw a len==0 frame: close is graceful
    bool closed = false;
    bool dirty = false;       // on the owner's flush list
    bool want_write = false;  // EPOLLOUT armed (socket was full)
    std::string preamble_buf;  // acceptor: partial preamble bytes
    FrameDecoder decoder;
    FrameWriter out;          // egress frames; flushed from out_skip
    std::size_t out_skip = 0;
    /// Local peer only: where each frame in `out` ends, so a sever knows
    /// how many frames it drops unwritten.
    std::vector<std::size_t> frame_ends;
  };

  /// A node's loop plus the sockets it owns (touched by its loop thread
  /// only, or by start() before any loop runs).
  struct Node : NodeLoop {
    using NodeLoop::NodeLoop;
    ~Node() override;
    int listen_fd = -1;  // a server's; a client listens on nothing
    std::uint16_t listen_port = 0;
    std::vector<std::unique_ptr<Conn>> conns;  // closed ones stay until stop
    std::map<NodeAddress, Conn*> egress;  // the egress rule (file comment)
    std::vector<Conn*> dirty;
    std::size_t blocked = 0;  // conns waiting for EPOLLOUT
    /// sendmsg calls that wrote bytes; read by any thread.
    std::atomic<std::uint64_t> tx_flushes{0};

    [[nodiscard]] obs::LinkCounters counters() const override;
  };

  // LoopTransport / NodeLoop::Hooks.
  std::unique_ptr<NodeLoop> make_node(NodeAddress addr,
                                      MessageHandler on_message,
                                      CrashHandler on_crash,
                                      TimerHandler on_timer) override;
  void on_start(const std::vector<NodeLoop*>& nodes) override;
  void on_io(NodeLoop& n, void* tag, std::uint32_t events) override;
  bool before_block(NodeLoop& n) override;
  bool has_staged(NodeLoop& n) override;
  void on_sever(NodeLoop& n) override;
  void on_stop(NodeLoop& n) override;

  // Loop-thread only.
  void stage(Node& n, NodeAddress to, const Payload& msg);
  /// The egress connection n → to, dialing it if absent (the file
  /// comment's rule). nullptr when the peer is unreachable or its
  /// connection broke (treated as crashed).
  Conn* egress(Node& n, NodeAddress to);
  Conn* dial(Node& n, NodeAddress to);
  Conn& adopt(Node& n, int fd);
  void on_accept(Node& n);
  void on_readable(Node& n, Conn& c);
  void deliver_frame(Node& n, const Conn& c, std::string_view body);
  void flush(Node& n, Conn& c);
  void close_conn(Node& n, Conn& c, bool attribute_break);

  Options opts_;
};

}  // namespace hts::net
