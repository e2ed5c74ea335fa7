// One node's run-to-completion event loop, and the transport core that runs
// one loop per registered node (DESIGN.md D12, §NodeLoop).
//
// The paper's server is a single-threaded state machine over reliable FIFO
// links plus a perfect failure detector. A NodeLoop gives one node exactly
// that: one thread owning a mailbox (other threads post, an eventfd wakes
// the loop), a (deadline, seq) timer min-heap whose earliest deadline is
// epoll_wait's timeout, and the node's three handlers, which it runs
// serialized — messages, timers and crash notices alike. A transport plugs
// in through Hooks: the fds it watches on the loop's epoll set, a step
// before the loop blocks, sends posted by other threads, and what a crash or
// a stop does to its connections. The loop never knows which transport it
// serves; InMemTransport plugs in nothing.
//
// LoopTransport is the core both transports share around their loops: the
// node registry (a handler addressing its own node skips the registry
// lock), crash-notice scheduling, link counters and the quiescence rule.
//
// Quiescence: a message counts as work from the moment it is accepted for a
// node (a mailbox post, or a TCP frame staged for a node of this transport)
// until its handler returns or it is dropped. wait_quiescent() returns true
// once one sweep, during which no message was accepted anywhere, finds every
// node with an empty mailbox, outside any handler, holding no unflushed
// egress, with no crash notice pending and — if it is up — no accepted
// message left to consume. A link into a crashed node carries no work; a
// crashed node's sever settles the frames it staged but never wrote. Plain
// timers still pending do not count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/payload.h"
#include "net/transport.h"
#include "obs/net_stats.h"

namespace hts::net {

class NodeLoop {
 public:
  /// What a transport adds to its nodes' loops. Every hook runs on the
  /// node's loop thread.
  class Hooks {
   public:
    virtual ~Hooks() = default;
    /// An fd registered with watch() is ready.
    virtual void on_io(NodeLoop& /*n*/, void* /*tag*/,
                       std::uint32_t /*events*/) {}
    /// The last step before the loop blocks. Returns true while the node
    /// still holds work that no event will report (egress a full socket
    /// refused).
    virtual bool before_block(NodeLoop& /*n*/) { return false; }
    /// A send another thread posted for this node (post_send).
    virtual void on_send(NodeLoop& /*n*/, NodeAddress /*to*/,
                         const Payload& /*msg*/) {}
    /// The node crashed: drop what it owns, without goodbyes.
    virtual void on_sever(NodeLoop& /*n*/) {}
    /// The loop is exiting because the transport stops.
    virtual void on_stop(NodeLoop& /*n*/) {}
  };

  /// `owner` identifies the transport hosting the node (see current()).
  NodeLoop(const void* owner, NodeAddress addr,
           Transport::MessageHandler on_message,
           Transport::CrashHandler on_crash, Transport::TimerHandler on_timer);
  virtual ~NodeLoop();

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  /// The node whose loop runs on the calling thread, when `owner` hosts it.
  static NodeLoop* current(const void* owner);

  [[nodiscard]] NodeAddress addr() const { return addr_; }
  [[nodiscard]] bool up() const { return up_.load(std::memory_order_acquire); }
  /// Claims the up→down transition: true for exactly one caller.
  bool mark_down() { return up_.exchange(false, std::memory_order_acq_rel); }
  [[nodiscard]] bool on_loop() const;

  // ------------------------------------------------------ any thread
  /// Accepts a message for this node (counted as work until consumed).
  void post_message(NodeAddress from, PayloadPtr msg);
  /// Hands a send to the loop (Hooks::on_send).
  void post_send(NodeAddress to, PayloadPtr msg);
  /// Asks the loop to run Hooks::on_sever.
  void post_sever();
  /// Arms a timer, or a crash notice when `crashed` is a process id. On the
  /// loop thread this pushes onto the heap; elsewhere it posts.
  void arm(clk::SteadyTime at, std::uint64_t token,
           ProcessId crashed = kNoProcess);
  /// Quiescence accounting: one more message accepted for this node, and
  /// `n` of them consumed or dropped.
  void expect() { accepted_.fetch_add(1, std::memory_order_acq_rel); }
  void settle(std::uint64_t n) {
    consumed_.fetch_add(n, std::memory_order_acq_rel);
  }
  [[nodiscard]] std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_acquire);
  }
  /// This node's share of the quiescence rule (see the file comment).
  [[nodiscard]] bool quiet() const HTS_EXCLUDES(mu_);
  /// tx is charged by the sending transport, rx by dispatch().
  void count_tx(std::size_t bytes);
  [[nodiscard]] obs::LinkCounters counters() const;

  // ------------------------------------ loop thread (or before start())
  /// Adds, modifies or removes (`op` = EPOLL_CTL_*) an fd on the loop's
  /// epoll set; Hooks::on_io receives `tag`, which must not be null.
  void watch(int op, int fd, std::uint32_t events, void* tag);
  /// Runs the message handler and counts the delivery, if the node is up.
  void dispatch(NodeAddress from, PayloadPtr msg, std::size_t bytes);

  // ------------------------------------------------- controlling thread
  /// Spawns the loop thread; it runs until `stopping` is set and wake().
  void start(Hooks& hooks, const std::atomic<bool>& stopping);
  void wake() const;
  void join();

 private:
  /// A timer, or a crash notice (crashed != kNoProcess).
  struct Timer {
    clk::SteadyTime at;
    std::uint64_t seq = 0;  // FIFO among equal deadlines
    std::uint64_t token = 0;
    ProcessId crashed = kNoProcess;
  };
  /// Work posted by another thread.
  struct Mail {
    enum class Kind : std::uint8_t { kMessage, kSend, kTimer, kSever } kind;
    NodeAddress peer;  // kMessage: sender; kSend: destination
    PayloadPtr msg;
    Timer timer;
  };

  void post(Mail mail) HTS_EXCLUDES(mu_);
  void push_timer(Timer t);
  void run(Hooks& hooks, const std::atomic<bool>& stopping);
  void drain_mailbox(Hooks& hooks) HTS_EXCLUDES(mu_);
  void fire_timers();

  const void* owner_;
  const NodeAddress addr_;
  const Transport::MessageHandler on_message_;
  const Transport::CrashHandler on_crash_;
  const Transport::TimerHandler on_timer_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; its epoll tag is null

  /// Liveness: send paths read it lock-free, crash() claims the transition.
  std::atomic<bool> up_{true};
  /// From wake-up until the loop blocks again (or while before_block
  /// reports held work).
  std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> consumed_{0};
  /// Crash notices armed on this node that have not fired yet.
  std::atomic<std::uint64_t> notices_{0};

  mutable sync::Mutex mu_;
  std::vector<Mail> mailbox_ HTS_GUARDED_BY(mu_);

  // Loop-thread state.
  std::vector<Mail> inbox_;     // the mailbox batch being handled
  std::vector<Timer> timers_;   // min-heap on (at, seq)
  std::uint64_t timer_seq_ = 0;

  // Per-node traffic accounting (obs::LinkStatsSource); relaxed atomics.
  std::atomic<std::uint64_t> tx_messages_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> rx_messages_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};

  std::thread thread_;  // declared last: the loop touches everything above
};

/// The core both transports share: registry, lifecycle, timers, crash
/// notices, accounting and quiescence. Subclasses implement send() and may
/// override the loop hooks, make_node() and on_start().
class LoopTransport : public Transport, protected NodeLoop::Hooks {
 public:
  explicit LoopTransport(double detection_delay_s);
  /// Subclasses stop() in their own destructor, while their hooks live.
  ~LoopTransport() override;

  LoopTransport(const LoopTransport&) = delete;
  LoopTransport& operator=(const LoopTransport&) = delete;

  /// Nodes registered while running (a live ring spawn) start at once.
  void register_node(NodeAddress addr, MessageHandler on_message,
                     CrashHandler on_crash = nullptr,
                     TimerHandler on_timer = nullptr) override
      HTS_EXCLUDES(registry_mu_);
  void start() override HTS_EXCLUDES(registry_mu_);
  void stop() override HTS_EXCLUDES(registry_mu_);
  void arm_timer(NodeAddress addr, double delay_s, std::uint64_t token)
      override HTS_EXCLUDES(registry_mu_);
  /// A hosted node goes down at once and its loop severs what it owns;
  /// every surviving hosted node gets a notice after the detection delay.
  void crash(NodeAddress addr) override HTS_EXCLUDES(registry_mu_, crash_mu_);
  /// Hosted nodes report their own liveness; any other server is up until
  /// its crash is detected.
  [[nodiscard]] bool is_up(NodeAddress addr) const override
      HTS_EXCLUDES(registry_mu_, crash_mu_);
  bool wait_quiescent(double timeout_s) override HTS_EXCLUDES(registry_mu_);

  [[nodiscard]] std::uint64_t total_transmissions() const override {
    return transmissions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Per hosted node ("s<id>"/"c<id>"), in registration order.
  [[nodiscard]] std::vector<obs::LinkCounters> link_counters() const override
      HTS_EXCLUDES(registry_mu_);

 protected:
  /// Builds a node's loop; a subclass returns its own NodeLoop subtype.
  virtual std::unique_ptr<NodeLoop> make_node(NodeAddress addr,
                                              MessageHandler on_message,
                                              CrashHandler on_crash,
                                              TimerHandler on_timer);
  /// Runs in start() before any loop thread exists.
  virtual void on_start(const std::vector<NodeLoop*>& /*nodes*/) {}

  NodeLoop* find(NodeAddress addr) const HTS_EXCLUDES(registry_mu_);
  /// Stable snapshot (nodes are never deregistered, only crashed).
  std::vector<NodeLoop*> snapshot_nodes() const HTS_EXCLUDES(registry_mu_);
  /// Charges one accepted send to the totals and to `src` when hosted.
  void count_tx(NodeLoop* src, const Payload& msg);
  /// Failure detector entry point: one notice per crashed server, armed on
  /// every surviving hosted node.
  void schedule_crash_notice(ProcessId crashed) HTS_EXCLUDES(crash_mu_);
  [[nodiscard]] bool crash_detected(ProcessId p) const HTS_EXCLUDES(crash_mu_);
  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

 private:
  const double detection_delay_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  mutable sync::SharedMutex registry_mu_;
  std::vector<std::unique_ptr<NodeLoop>> nodes_ HTS_GUARDED_BY(registry_mu_);
  std::map<NodeAddress, NodeLoop*> by_addr_ HTS_GUARDED_BY(registry_mu_);

  /// Crashed servers already noticed (dedups local crash(), broken
  /// connections and refused dials that blame the same server).
  mutable sync::Mutex crash_mu_;
  std::set<ProcessId> crash_detected_ HTS_GUARDED_BY(crash_mu_);

  std::atomic<std::uint64_t> transmissions_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
};

}  // namespace hts::net
