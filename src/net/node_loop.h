// One node's run-to-completion event loop, and the transport core that runs
// one loop per registered node (DESIGN.md D12, §NodeLoop).
//
// The paper's server is a single-threaded state machine over reliable FIFO
// links plus a perfect failure detector. A NodeLoop gives one node exactly
// that: one thread owning a mailbox (other threads post and wake the loop),
// a (deadline, seq) timer min-heap whose earliest deadline bounds the
// loop's sleep, and the node's three handlers, which it runs serialized —
// messages, timers and crash notices alike. A transport plugs in through
// Hooks: the fds it watches on the loop's epoll set, a step before the loop
// blocks, sends posted by other threads, and what a crash or a stop does to
// its connections. The loop never knows which transport it serves;
// InMemTransport plugs in nothing.
//
// Parking: whether the loop watches any fd picks how it sleeps. A loop that
// watches one (every TcpTransport node: its listener, from make_node on)
// blocks in epoll_wait and is woken through an eventfd. A loop that watches
// none (every InMemTransport node) has no epoll set or eventfd at all: it
// parks on a futex word until the absolute deadline of its earliest timer,
// and a wake is one futex wake, made only while it is parked.
//
// Run lock: the loop thread holds run_mu_ whenever it is not parked. Work
// for a node that watches no fd, is parked and has an empty mailbox may run
// inline, on the thread that hands it over, when that thread wins a
// try-lock of the run lock (so the loop cannot resume underneath it). Two
// hand-overs qualify:
//   - execute() from a thread doing no node's work (a caller, not a loop
//     thread or a run already inline);
//   - a message from a thread doing some node's work — its own loop's node,
//     or a node it runs inline, a caller's execute() run included — to a
//     node the thread does not hold already.
// Runs nest: a message sent inside an inline run may run inline too, up to
// kMaxInlineDepth runs deep on one thread, and is posted beyond that. So on
// an idle ring a caller's execute() runs client → s0 → s1 → s2 on its own
// thread. The inline run switches the thread's current node to the
// destination and back and counts as accepted work until it returns.
//
// The holder drains: while a thread runs a node inline, posts to that node
// skip the futex wake and leave their mail to the thread. That covers a
// send back into a node held further up the stack (s2 → s0 above: never
// re-entered, it is posted) and other threads' mail. Before it releases the
// run lock the holder drains the node's mailbox, for a bounded number of
// rounds, and hands what is left to the loop with one wake — as it does if
// it armed a timer earlier than the deadline the loop sleeps until. The loop
// itself stays parked throughout, so a wake that is not mail (stop()) still
// reaches it and it resumes once the holder lets go.
//
// Everything else is posted: foreign-thread messages, self-sends,
// execute() from a thread doing a node's work, and every TCP hand-over. The
// empty-mailbox rule keeps one caller's closures in call order and every
// link FIFO: a parked loop has handled everything posted to it before, and
// a held node takes no second inline run until its holder has drained it.
//
// LoopTransport is the core both transports share around their loops: the
// node registry (a handler addressing its own node skips the registry
// lock), crash-notice scheduling, link counters and the quiescence rule.
//
// Quiescence: a message or an execute() closure counts as work from the
// moment it is accepted for a node (a mailbox post, an inline run, or a TCP
// frame staged for a node of this transport) until its handler returns or
// it is dropped. wait_quiescent() returns true once one sweep, during which
// nothing was accepted anywhere, finds every node with an empty mailbox,
// outside any handler, holding no unflushed egress, with no crash notice
// pending and — if it is up — no accepted work left to consume. A link into
// a crashed node carries no work; a crashed node's sever settles the frames
// it staged but never wrote. Plain timers still pending do not count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
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

  /// How many inline runs one thread may nest (see the file comment): a
  /// client plus a full circulation of a ring of up to seven servers.
  static constexpr int kMaxInlineDepth = 8;

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
  /// Accepts a message for this node (counted as work until consumed):
  /// runs its handler inline when the file comment's rule allows, else
  /// posts it to the loop.
  void deliver(NodeAddress from, PayloadPtr msg) HTS_EXCLUDES(mu_);
  /// Hands a send to the loop (Hooks::on_send).
  void post_send(NodeAddress to, PayloadPtr msg);
  /// Asks the loop to run Hooks::on_sever.
  void post_sever();
  /// Runs `fn` serialized with this node's handlers — inline on the calling
  /// thread while the loop stays parked, when the file comment's rule
  /// allows, else on the loop. Dropped, unrun, if the node is down by then.
  void execute(std::function<void()> fn) HTS_EXCLUDES(run_mu_, mu_);
  /// Arms a timer, or a crash notice when `crashed` is a process id. On the
  /// loop thread (or inside work run inline on this node) this pushes onto
  /// the heap; elsewhere it posts.
  void arm(clk::SteadyTime at, std::uint64_t token,
           ProcessId crashed = kNoProcess);
  /// Quiescence accounting: one more message or closure accepted for this
  /// node, and `n` of them consumed or dropped.
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
  /// epoll set; Hooks::on_io receives `tag`, which must not be null. The
  /// first call creates the epoll set and eventfd, and must come before
  /// start(): it switches the loop from futex parking to epoll.
  void watch(int op, int fd, std::uint32_t events, void* tag);
  /// Runs the message handler and counts the delivery, if the node is up.
  void dispatch(NodeAddress from, PayloadPtr msg, std::size_t bytes);
  /// Calls the link-ready upcall until it has nothing left to send.
  void pull_egress() {
    if (on_link_ready_) {
      while (on_link_ready_()) {
      }
    }
  }

  // ------------------------------------------------- controlling thread
  /// Installs the egress upcall; before the node is registered.
  void set_link_ready(Transport::LinkReadyHandler fn) {
    on_link_ready_ = std::move(fn);
  }
  /// Spawns the loop thread; it runs until `stopping` is set and wake().
  void start(Hooks& hooks, const std::atomic<bool>& stopping);
  /// Any thread: an eventfd write, or a futex wake if the loop is parked.
  void wake();
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
    enum class Kind : std::uint8_t {
      kMessage,
      kSend,
      kTimer,
      kSever,
      kExecute
    } kind;
    NodeAddress peer;  // kMessage: sender; kSend: destination
    PayloadPtr msg;
    Timer timer;
    std::function<void()> fn;  // kExecute
  };

  void post(Mail mail) HTS_EXCLUDES(mu_);
  [[nodiscard]] bool mailbox_empty() const HTS_EXCLUDES(mu_);
  void push_timer(Timer t) HTS_REQUIRES(run_mu_);
  void run(Hooks& hooks, const std::atomic<bool>& stopping)
      HTS_EXCLUDES(run_mu_);
  /// One epoll_wait and the events it returns; false on a fatal error.
  bool wait_events(Hooks& hooks) HTS_REQUIRES(run_mu_);
  /// Sleeps on the futex until a wake() after `seq` was read, or until the
  /// earliest timer is due — unless mail is already waiting.
  void park(std::uint32_t seq) HTS_REQUIRES(run_mu_) HTS_EXCLUDES(mu_);
  /// Runs `fn` as this node's work on the calling thread when the loop is
  /// parked as the file comment describes; false, with nothing run, else.
  template <typename Fn>
  bool try_run_inline(Fn&& fn) HTS_EXCLUDES(run_mu_, mu_);
  void drain_mailbox(Hooks& hooks) HTS_REQUIRES(run_mu_) HTS_EXCLUDES(mu_);
  void fire_timers() HTS_REQUIRES(run_mu_);

  const void* owner_;
  const NodeAddress addr_;
  const Transport::MessageHandler on_message_;
  const Transport::CrashHandler on_crash_;
  const Transport::TimerHandler on_timer_;
  Transport::LinkReadyHandler on_link_ready_;  // set before the node is found
  // Created by the first watch(), before start(); -1 on an fd-less loop.
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

  /// Futex parking (fd-less loops): wake() bumps the word; the loop sleeps
  /// only while it still holds the value read before its last checks.
  std::atomic<std::uint32_t> wake_seq_{0};
  /// Between releasing the run lock to park and taking it back.
  std::atomic<bool> parked_{false};
  /// While another thread runs this (parked) node inline: posts leave their
  /// mail to that thread instead of waking the loop.
  std::atomic<bool> held_{false};
  /// The transport's hooks, set by start(); a holder drains mail with them.
  Hooks* hooks_ = nullptr;

  mutable sync::Mutex mu_;
  std::vector<Mail> mailbox_ HTS_GUARDED_BY(mu_);

  /// Held by the loop thread whenever it is not parked, and by a thread
  /// running work inline on this node; it guards the loop-thread state.
  sync::Mutex run_mu_;
  std::vector<Mail> inbox_ HTS_GUARDED_BY(run_mu_);  // batch being handled
  std::vector<Timer> timers_ HTS_GUARDED_BY(run_mu_);  // min-heap (at, seq)
  std::uint64_t timer_seq_ HTS_GUARDED_BY(run_mu_) = 0;
  /// The deadline a parked loop sleeps until (max: no timer pending).
  clk::SteadyTime park_deadline_ HTS_GUARDED_BY(run_mu_);

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
                     TimerHandler on_timer = nullptr,
                     LinkReadyHandler on_link_ready = nullptr) override
      HTS_EXCLUDES(registry_mu_);
  void start() override HTS_EXCLUDES(registry_mu_);
  void stop() override HTS_EXCLUDES(registry_mu_);
  void arm_timer(NodeAddress addr, double delay_s, std::uint64_t token)
      override HTS_EXCLUDES(registry_mu_);
  void execute(NodeAddress addr, std::function<void()> fn) override
      HTS_EXCLUDES(registry_mu_);
  /// Drains the node's egress at once, on the calling thread.
  void pull_egress(NodeAddress addr) override HTS_EXCLUDES(registry_mu_);
  [[nodiscard]] double now() const override {
    return clk::seconds_since(epoch_);
  }
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
  const clk::SteadyTime epoch_ = clk::steady_now();  // now()'s zero
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
