// Real socket transport: one run-to-completion epoll loop per node over
// loopback/LAN TCP.
//
// TcpTransport implements the same node-facing surface as InMemTransport
// (net::Transport), but every non-self send crosses a real TCP connection as
// a length-prefixed frame whose body is byte-identical to the wire codec's
// encode (golden-pinned in tests/tcp_test.cpp). One transport instance hosts
// the nodes of one OS process; a deployment is one instance per process
// (harness/proc_cluster.*) or a single instance hosting every node over
// loopback (ThreadedCluster's tcp mode).
//
// Wire protocol (DESIGN.md §Transport, D12):
//   connection preamble  u32 magic 'HTS1' · u8 src_kind · u64 src_id ·
//                        u8 dst_kind · u64 dst_id     (initiator → acceptor)
//   then frames          u32 body_len · body          (body = encode bytes)
//   bye                  body_len == 0: graceful close, not a failure
// Connections are directed: the (src → dst) initiator writes data frames,
// the acceptor only ever writes a bye. A TCP break (EOF/RST) without a bye
// is a crash of the remote node — the paper's perfect failure detector,
// honest on a LAN where partitions are out of scope: surviving peers'
// crash handlers fire after `detection_delay`.
//
// Threading: each node runs one epoll loop thread that owns everything the
// node touches — its listener, the connections it accepted and dialed, its
// timer min-heap and its mailbox. A frame read off a socket is decoded and
// handed to the node's handler inline; a send() from the handler appends
// the frame to the connection's FrameWriter and marks it dirty, and before
// the loop blocks again each dirty connection is flushed with one sendmsg
// (scatter-gather over the writer's pooled segments). The earliest timer
// deadline is epoll_wait's timeout. Only calls from other threads (caller
// self-sends, tests, crash(), a foreign arm_timer) go through the mailbox
// plus an eventfd wake. Handlers of one node therefore run serialized on
// one thread with no handoff between socket and state machine.
//
// Layering: hts_net cannot depend on hts_core, so the codec is injected
// (Options::encode / Options::decode); the harness wires the core message
// codec in. Self-sends (from == to) carry non-wire harness control payloads
// and bypass the socket path entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/frame_writer.h"
#include "net/payload.h"
#include "net/transport.h"
#include "obs/net_stats.h"

namespace hts::net {

class TcpTransport : public Transport {
 public:
  struct Options {
    /// Seconds between a TCP break and the surviving nodes' crash handlers.
    double detection_delay_s = 0.05;
    /// Listen-port base: a node's port is base + id (servers) or
    /// base + kClientPortBias + id (clients). 0 means "ephemeral": each
    /// listener binds port 0 and publishes its real port in a process-wide
    /// registry — safe under parallel ctest, valid only when every node of
    /// the deployment lives in this one process.
    std::uint16_t base_port = 0;
    /// Full server set of the deployment. At start() every local node
    /// eagerly connects to each of these (the failure-detection mesh): a
    /// peer's death must break at least one connection into this process
    /// even if no data was ever exchanged.
    std::vector<ProcessId> servers;
    /// Message codec, injected by the harness (hts_net cannot see
    /// hts_core). encode must append exactly the message's wire bytes;
    /// decode parses one frame body back into a payload.
    std::function<void(const Payload&, FrameWriter&)> encode;
    std::function<PayloadPtr(std::string_view)> decode;
  };

  static constexpr std::uint32_t kMagic = 0x31535448;  // "HTS1" little-endian
  static constexpr std::uint64_t kClientPortBias = 256;
  static constexpr std::size_t kPreambleBytes = 4 + 1 + 8 + 1 + 8;

  explicit TcpTransport(Options opts);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // ------------------------------------------------- net::Transport surface

  void register_node(NodeAddress addr, MessageHandler on_message,
                     CrashHandler on_crash = nullptr,
                     TimerHandler on_timer = nullptr) override
      HTS_EXCLUDES(registry_mu_);

  void start() override HTS_EXCLUDES(registry_mu_);
  void stop() override HTS_EXCLUDES(registry_mu_);

  /// `from` must be a node registered on this transport. Called on that
  /// node's loop thread the frame is staged directly; from any other
  /// thread the send is posted to the node's mailbox.
  void send(NodeAddress from, NodeAddress to, PayloadPtr msg) override
      HTS_EXCLUDES(registry_mu_);

  void arm_timer(NodeAddress addr, double delay_s, std::uint64_t token)
      override HTS_EXCLUDES(registry_mu_);

  /// Crashes a *local* server node: its mailbox and timers are discarded and
  /// every connection it owns is closed without a bye — remote processes
  /// see the break, local survivors get the same detection-delay notice.
  void crash(NodeAddress addr) override HTS_EXCLUDES(registry_mu_, crash_mu_);

  /// Local nodes report their own liveness; remote servers report "not yet
  /// detected crashed" (the failure detector's view).
  [[nodiscard]] bool is_up(NodeAddress addr) const override
      HTS_EXCLUDES(registry_mu_, crash_mu_);

  bool wait_quiescent(double timeout_s) override HTS_EXCLUDES(registry_mu_);

  [[nodiscard]] std::uint64_t total_transmissions() const override {
    return transmissions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

  /// Per-local-node counters ("s<id>"/"c<id>"). tx counts payload wire
  /// bytes accepted at send(); rx counts frame-body bytes delivered.
  [[nodiscard]] std::vector<obs::LinkCounters> link_counters() const override;

  /// The port a node listens on under this transport's port scheme. With an
  /// ephemeral base the process-wide registry answers (local nodes only).
  [[nodiscard]] std::uint16_t port_of(NodeAddress addr) const;

 private:
  struct Node;

  /// A timer or a crash notice (crashed != kNoProcess) in a node's heap.
  struct Timer {
    clk::SteadyTime at;
    std::uint64_t seq = 0;  // FIFO among equal deadlines
    std::uint64_t token = 0;
    ProcessId crashed = kNoProcess;
  };

  /// Work posted to a node's loop by another thread.
  struct Mail {
    enum class Kind : std::uint8_t { kMessage, kSend, kTimer, kCrash } kind;
    NodeAddress peer;  // kMessage: sender; kSend: destination
    PayloadPtr msg;
    Timer timer;
  };

  /// One directed TCP connection, owned by one node's loop thread (no lock).
  /// epoll_event.data.ptr points at it.
  struct Conn {
    Conn() = default;
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    int fd = -1;
    NodeAddress remote;    // acceptor side learns it from the preamble
    Node* peer = nullptr;  // the remote node when it is hosted here too
    bool have_preamble = false;
    bool remote_bye = false;  // saw a len==0 frame: close is graceful
    bool closed = false;
    bool dirty = false;       // on the owner's flush list
    bool want_write = false;  // EPOLLOUT armed (socket was full)
    std::string preamble_buf;  // acceptor: partial preamble bytes
    FrameDecoder decoder;
    FrameWriter out;          // egress frames; flushed from out_skip
    std::size_t out_skip = 0;
  };

  struct Node {
    ~Node();
    NodeAddress addr;
    MessageHandler on_message;
    CrashHandler on_crash;
    TimerHandler on_timer;

    std::atomic<bool> up{true};
    /// The loop is between wake-up and its next epoll_wait, or holds
    /// unflushed egress: wait_quiescent counts it as work.
    std::atomic<bool> busy{false};
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: foreign threads poke the loop
    std::uint16_t listen_port = 0;

    sync::Mutex mu;
    std::vector<Mail> mailbox HTS_GUARDED_BY(mu);

    // Loop-thread state (start() touches it before the thread exists).
    std::vector<Mail> inbox;  // the mailbox batch being handled
    std::vector<std::unique_ptr<Conn>> conns;  // closed ones stay until stop
    std::map<NodeAddress, Conn*> egress;
    std::vector<Conn*> dirty;
    std::size_t blocked = 0;   // conns waiting for EPOLLOUT
    std::vector<Timer> timers;  // min-heap on (at, seq)
    std::uint64_t timer_seq = 0;

    std::atomic<std::uint64_t> tx_messages{0};
    std::atomic<std::uint64_t> tx_bytes{0};
    std::atomic<std::uint64_t> rx_messages{0};
    std::atomic<std::uint64_t> rx_bytes{0};

    std::thread thread;  // the loop; declared after everything it touches
  };

  // ------------------------------------------------------------- internals
  Node* find(NodeAddress addr) const HTS_EXCLUDES(registry_mu_);
  std::vector<Node*> snapshot_nodes() const HTS_EXCLUDES(registry_mu_);
  /// True when the calling thread is `n`'s loop thread.
  bool on_loop(const Node& n) const;

  void post(Node& n, Mail mail);
  void add_timer(Node& n, Timer t);

  // Loop-thread only.
  void run_loop(Node& n) HTS_EXCLUDES(registry_mu_, crash_mu_);
  void drain_mailbox(Node& n);
  void fire_timers(Node& n);
  void stage(Node& n, NodeAddress to, const Payload& msg);
  void count_tx(Node& src, const Payload& msg);
  /// The egress connection n → to, dialing it if absent. nullptr when the
  /// peer is unreachable or its connection broke (treated as crashed).
  Conn* egress(Node& n, NodeAddress to) HTS_EXCLUDES(crash_mu_);
  Conn* dial(Node& n, NodeAddress to) HTS_EXCLUDES(crash_mu_);
  Conn& adopt(Node& n, int fd);
  void on_accept(Node& n);
  void on_readable(Node& n, Conn& c);
  void deliver_frame(Node& n, const Conn& c, std::string_view body);
  void flush(Node& n, Conn& c);
  void close_conn(Node& n, Conn& c, bool attribute_break)
      HTS_EXCLUDES(crash_mu_);
  void sever(Node& n);
  void teardown(Node& n);

  /// Failure detector entry point: one notice per crashed server, delivered
  /// to every local surviving node after detection_delay.
  void schedule_crash_notice(ProcessId crashed) HTS_EXCLUDES(crash_mu_);

  Options opts_;
  std::atomic<bool> started_{false};
  /// Set once start()'s mesh loop has reached every server: before that,
  /// a refused dial means a peer is still starting, not crashed.
  std::atomic<bool> mesh_formed_{false};
  std::atomic<bool> stopping_{false};

  mutable sync::SharedMutex registry_mu_;
  std::vector<std::unique_ptr<Node>> nodes_ HTS_GUARDED_BY(registry_mu_);
  std::map<NodeAddress, Node*> by_addr_ HTS_GUARDED_BY(registry_mu_);

  /// Crashed servers already noticed (dedups break detection vs local
  /// crash(), and multiple broken connections to the same peer).
  mutable sync::Mutex crash_mu_;
  std::set<ProcessId> crash_detected_ HTS_GUARDED_BY(crash_mu_);
  /// Crash notices armed on some node's heap that have not fired yet.
  std::atomic<std::uint64_t> pending_notices_{0};

  std::atomic<std::uint64_t> transmissions_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // Loopback frame balance for wait_quiescent: frames staged for local
  // nodes vs frames from local nodes whose handler has returned. Equal ⇒
  // nothing is in flight inside the kernel between two local endpoints, or
  // in a handler (the only in-flight work a one-process deployment has).
  std::atomic<std::uint64_t> local_frames_sent_{0};
  std::atomic<std::uint64_t> local_frames_delivered_{0};
};

}  // namespace hts::net
