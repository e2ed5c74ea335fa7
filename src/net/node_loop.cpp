#include "net/node_loop.h"

#include <linux/futex.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <climits>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>

namespace hts::net {

namespace {

/// The node whose work runs on this thread: its own loop's node, or the
/// node an inline run has switched to (null off every loop and inline run).
thread_local NodeLoop* tl_node = nullptr;
/// The loop this thread runs (null off every loop thread).
thread_local NodeLoop* tl_loop = nullptr;
/// The nodes this thread runs inline, outermost first: each holds its run
/// lock until its run returns.
thread_local NodeLoop* tl_held[NodeLoop::kMaxInlineDepth] = {};
thread_local int tl_depth = 0;

/// Drain rounds a holder runs over mail left to it before it hands the rest
/// to the loop: a write's two send-backs into the ring's first server (the
/// pre-write's and then the commit's return) each take one. Mail that keeps
/// arriving past them is other threads' traffic, which the loop takes.
constexpr int kHolderDrainRounds = 2;

/// Whether this thread holds `n`'s run lock: its own loop's node, or a node
/// it runs inline further up its stack.
bool holds(const NodeLoop* n) {
  return n == tl_loop || std::find(tl_held, tl_held + tl_depth, n) !=
                             tl_held + tl_depth;
}

/// Timer heap order: std::*_heap keep the earliest (deadline, arrival) on
/// top under this "later than" comparison.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

constexpr clk::SteadyTime kNever = clk::SteadyTime::max();

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
              std::atomic<std::uint32_t>::is_always_lock_free);

std::uint32_t* futex_word(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

/// Sleeps while `word` holds `expected`, until a wake or `deadline` (an
/// absolute CLOCK_MONOTONIC time, which steady_clock reads).
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                clk::SteadyTime deadline) {
  timespec at{};
  const timespec* timeout = nullptr;
  if (deadline != kNever) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        deadline.time_since_epoch())
                        .count();
    at.tv_sec = static_cast<std::time_t>(ns / 1'000'000'000);
    at.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    timeout = &at;
  }
  ::syscall(SYS_futex, futex_word(word), FUTEX_WAIT_BITSET_PRIVATE, expected,
            timeout, nullptr, FUTEX_BITSET_MATCH_ANY);
}

void futex_wake(std::atomic<std::uint32_t>& word) {
  ::syscall(SYS_futex, futex_word(word), FUTEX_WAKE_PRIVATE, 1, nullptr,
            nullptr, 0);
}

}  // namespace

// ------------------------------------------------------------ NodeLoop

NodeLoop::NodeLoop(const void* owner, NodeAddress addr,
                   Transport::MessageHandler on_message,
                   Transport::CrashHandler on_crash,
                   Transport::TimerHandler on_timer)
    : owner_(owner),
      addr_(addr),
      on_message_(std::move(on_message)),
      on_crash_(std::move(on_crash)),
      on_timer_(std::move(on_timer)) {}

NodeLoop::~NodeLoop() {
  for (const int fd : {epoll_fd_, wake_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

NodeLoop* NodeLoop::current(const void* owner) {
  return tl_node != nullptr && tl_node->owner_ == owner ? tl_node : nullptr;
}

bool NodeLoop::on_loop() const { return tl_node == this; }

void NodeLoop::post(Mail mail) {
  bool was_empty = false;
  {
    const sync::MutexLock lock(mu_);
    was_empty = mailbox_.empty();
    mailbox_.push_back(std::move(mail));
  }
  // One wake per batch: the loop swaps the whole mailbox out per wake-up.
  // A node run inline needs none: its holder drains the mailbox before it
  // lets go (the seq_cst pair with try_run_inline's release of held_).
  if (was_empty && !held_.load(std::memory_order_seq_cst)) wake();
}

template <typename Fn>
bool NodeLoop::try_run_inline(Fn&& fn) {
  // Only on a parked fd-less loop with nothing queued ahead: that keeps one
  // caller's closures in call order and every link FIFO. A node this thread
  // already holds is never re-entered (a held std::mutex is not try-locked
  // again), and runs nest at most kMaxInlineDepth deep.
  if (epoll_fd_ >= 0 || !parked_.load(std::memory_order_acquire) ||
      tl_depth == kMaxInlineDepth || holds(this)) {
    return false;
  }
  const sync::MutexTryLock run(run_mu_);
  if (!run.owns_lock() || !parked_.load(std::memory_order_acquire) ||
      !mailbox_empty()) {
    return false;
  }
  // From here posts skip the futex wake and leave their mail to this thread.
  held_.store(true, std::memory_order_seq_cst);
  // The work sees itself on this node (own-node lookups, direct timer
  // pushes) exactly as a handler would; the caller's node comes back after.
  NodeLoop* const caller = tl_node;
  tl_node = this;
  tl_held[tl_depth++] = this;
  if (up()) fn();
  settle(1);
  // Mail posted meanwhile — a send back into this node from a run nested
  // inside this one, or another thread's — is handled here, before the loop
  // could take it.
  for (int round = 0; round < kHolderDrainRounds && !mailbox_empty();
       ++round) {
    drain_mailbox(*hooks_);
  }
  --tl_depth;
  tl_node = caller;
  // Posted after this store, mail wakes the loop itself; posted before it,
  // this check sees it and hands it over with one wake. The loop sleeps in
  // park() throughout, so other wakes (stop(), a timer) reach it directly.
  held_.store(false, std::memory_order_seq_cst);
  if (!mailbox_empty() ||
      (!timers_.empty() && timers_.front().at < park_deadline_)) {
    wake();
  }
  return true;
}

void NodeLoop::deliver(NodeAddress from, PayloadPtr msg) {
  expect();
  // Inline only from a thread doing some node's work: a loop thread, or a
  // run already inline on this thread (nested up to the depth bound).
  if (tl_node != nullptr && try_run_inline([&] {
        const std::size_t bytes = msg->wire_size();
        dispatch(from, std::move(msg), bytes);
      })) {
    return;
  }
  post(Mail{Mail::Kind::kMessage, from, std::move(msg), {}, {}});
}

void NodeLoop::post_send(NodeAddress to, PayloadPtr msg) {
  post(Mail{Mail::Kind::kSend, to, std::move(msg), {}, {}});
}

void NodeLoop::post_sever() {
  post(Mail{Mail::Kind::kSever, {}, nullptr, {}, {}});
}

bool NodeLoop::mailbox_empty() const {
  const sync::MutexLock lock(mu_);
  return mailbox_.empty();
}

void NodeLoop::execute(std::function<void()> fn) {
  expect();
  // Inline only from a thread doing no node's work: a loop thread, or a
  // closure already running inline, posts.
  if (tl_node == nullptr && try_run_inline(fn)) return;
  post(Mail{Mail::Kind::kExecute, {}, nullptr, {}, std::move(fn)});
}

void NodeLoop::arm(clk::SteadyTime at, std::uint64_t token,
                   ProcessId crashed) {
  if (crashed != kNoProcess) notices_.fetch_add(1, std::memory_order_acq_rel);
  const Timer t{at, 0, token, crashed};
  if (on_loop()) {
    // On the loop thread, or in work run inline on this node: both hold
    // the run lock.
    run_mu_.assert_held();
    push_timer(t);
  } else {
    post(Mail{Mail::Kind::kTimer, {}, nullptr, t, {}});
  }
}

void NodeLoop::push_timer(Timer t) {
  t.seq = timer_seq_++;
  timers_.push_back(t);
  std::push_heap(timers_.begin(), timers_.end(), kLater);
}

bool NodeLoop::quiet() const {
  {
    const sync::MutexLock lock(mu_);
    if (!mailbox_.empty()) return false;
  }
  return !busy_.load(std::memory_order_acquire) &&
         notices_.load(std::memory_order_acquire) == 0 &&
         (!up() || consumed_.load(std::memory_order_acquire) ==
                       accepted_.load(std::memory_order_acquire));
}

void NodeLoop::count_tx(std::size_t bytes) {
  tx_messages_.fetch_add(1, std::memory_order_relaxed);
  tx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

obs::LinkCounters NodeLoop::counters() const {
  const char prefix = addr_.kind == NodeAddress::Kind::kServer ? 's' : 'c';
  return obs::LinkCounters{prefix + std::to_string(addr_.id),
                           tx_messages_.load(std::memory_order_relaxed),
                           tx_bytes_.load(std::memory_order_relaxed),
                           rx_messages_.load(std::memory_order_relaxed),
                           rx_bytes_.load(std::memory_order_relaxed)};
}

void NodeLoop::watch(int op, int fd, std::uint32_t events, void* tag) {
  assert(tag != nullptr && "the null tag is the loop's wake fd");
  if (epoll_fd_ < 0) {
    assert(!thread_.joinable() && "the first watch() precedes start()");
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      throw std::runtime_error("NodeLoop: epoll/eventfd setup failed");
    }
    epoll_event wake_ev{};
    wake_ev.events = EPOLLIN;
    wake_ev.data.ptr = nullptr;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_ev);
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  ::epoll_ctl(epoll_fd_, op, fd, &ev);
}

void NodeLoop::dispatch(NodeAddress from, PayloadPtr msg, std::size_t bytes) {
  if (!up()) return;  // messages to the dead are lost
  rx_messages_.fetch_add(1, std::memory_order_relaxed);
  rx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  on_message_(from, std::move(msg));
}

void NodeLoop::start(Hooks& hooks, const std::atomic<bool>& stopping) {
  hooks_ = &hooks;
  thread_ = std::thread([this, &hooks, &stopping] { run(hooks, stopping); });
}

void NodeLoop::wake() {
  if (epoll_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof(one));
    return;
  }
  // Dekker pairing with park(): either this load sees the loop parked, or
  // the loop's futex wait sees the bumped word and returns at once.
  wake_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst)) futex_wake(wake_seq_);
}

void NodeLoop::join() {
  if (thread_.joinable()) thread_.join();
}

void NodeLoop::run(Hooks& hooks, const std::atomic<bool>& stopping) {
  tl_loop = this;
  tl_node = this;
  {
    const sync::MutexLock running(run_mu_);
    for (;;) {
      // Read before every check that may skip the park: a wake() after this
      // load makes the futex wait return at once.
      const std::uint32_t seq = wake_seq_.load(std::memory_order_acquire);
      if (stopping.load(std::memory_order_acquire)) break;
      busy_.store(hooks.before_block(*this), std::memory_order_release);
      if (epoll_fd_ >= 0) {
        if (!wait_events(hooks)) break;
      } else {
        park(seq);
        busy_.store(true, std::memory_order_release);
        drain_mailbox(hooks);
      }
      fire_timers();
    }
    hooks.on_stop(*this);
  }
  tl_node = nullptr;
  tl_loop = nullptr;
}

bool NodeLoop::wait_events(Hooks& hooks) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int timeout_ms = -1;
  if (!timers_.empty()) {
    const auto wait = timers_.front().at - clk::steady_now();
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(wait).count();
    timeout_ms = static_cast<int>(std::clamp<decltype(ms)>(ms, 0, INT_MAX));
  }
  int nev = 0;
  int err = 0;
  {
    const sync::MutexUnlock unlocked(run_mu_);
    nev = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (nev < 0) err = errno;
  }
  busy_.store(true, std::memory_order_release);
  if (nev < 0) return err == EINTR;
  for (int i = 0; i < nev; ++i) {
    if (events[i].data.ptr == nullptr) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof(drained));
      drain_mailbox(hooks);
    } else {
      hooks.on_io(*this, events[i].data.ptr, events[i].events);
    }
  }
  return true;
}

void NodeLoop::park(std::uint32_t seq) {
  if (!mailbox_empty()) return;
  park_deadline_ = timers_.empty() ? kNever : timers_.front().at;
  parked_.store(true, std::memory_order_seq_cst);
  {
    const sync::MutexUnlock unlocked(run_mu_);
    futex_wait(wake_seq_, seq, park_deadline_);
  }
  parked_.store(false, std::memory_order_release);
}

void NodeLoop::drain_mailbox(Hooks& hooks) {
  {
    // Swapping keeps both vectors' capacity: no allocation in steady state.
    const sync::MutexLock lock(mu_);
    inbox_.swap(mailbox_);
  }
  for (Mail& m : inbox_) {
    switch (m.kind) {
      case Mail::Kind::kMessage: {
        const std::size_t bytes = m.msg->wire_size();
        dispatch(m.peer, std::move(m.msg), bytes);
        settle(1);
        break;
      }
      case Mail::Kind::kSend:
        if (up()) hooks.on_send(*this, m.peer, *m.msg);
        break;
      case Mail::Kind::kTimer:
        push_timer(m.timer);
        break;
      case Mail::Kind::kSever:
        hooks.on_sever(*this);
        break;
      case Mail::Kind::kExecute:
        if (up()) m.fn();
        settle(1);
        break;
    }
  }
  inbox_.clear();
}

void NodeLoop::fire_timers() {
  // A crashed node's loop idles until stop(); its notices still settle.
  const clk::SteadyTime now = clk::steady_now();
  while (!timers_.empty() && timers_.front().at <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), kLater);
    const Timer t = timers_.back();
    timers_.pop_back();
    if (t.crashed != kNoProcess) {
      if (up() && on_crash_) on_crash_(t.crashed);
      notices_.fetch_sub(1, std::memory_order_acq_rel);
    } else if (up() && on_timer_) {
      on_timer_(t.token);
    }
  }
}

// ------------------------------------------------------- LoopTransport

LoopTransport::LoopTransport(double detection_delay_s)
    : detection_delay_(detection_delay_s) {}

LoopTransport::~LoopTransport() { stop(); }

std::unique_ptr<NodeLoop> LoopTransport::make_node(NodeAddress addr,
                                                   MessageHandler on_message,
                                                   CrashHandler on_crash,
                                                   TimerHandler on_timer) {
  return std::make_unique<NodeLoop>(this, addr, std::move(on_message),
                                    std::move(on_crash), std::move(on_timer));
}

void LoopTransport::register_node(NodeAddress addr, MessageHandler on_message,
                                  CrashHandler on_crash, TimerHandler on_timer,
                                  LinkReadyHandler on_link_ready) {
  std::unique_ptr<NodeLoop> node =
      make_node(addr, std::move(on_message), std::move(on_crash),
                std::move(on_timer));
  node->set_link_ready(std::move(on_link_ready));
  NodeLoop* raw = node.get();
  {
    const sync::WriterLock lock(registry_mu_);
    assert(!by_addr_.contains(addr));
    by_addr_[addr] = raw;
    nodes_.push_back(std::move(node));
  }
  if (started_.load(std::memory_order_acquire) && !stopping()) {
    raw->start(*this, stopping_);  // live registration (ring spawn)
  }
}

void LoopTransport::start() {
  assert(!started_.load(std::memory_order_acquire));
  started_.store(true, std::memory_order_release);
  const std::vector<NodeLoop*> nodes = snapshot_nodes();
  on_start(nodes);
  for (NodeLoop* n : nodes) n->start(*this, stopping_);
}

void LoopTransport::stop() {
  if (!started_.load(std::memory_order_acquire) ||
      stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const std::vector<NodeLoop*> nodes = snapshot_nodes();
  for (NodeLoop* n : nodes) n->wake();
  for (NodeLoop* n : nodes) n->join();
}

NodeLoop* LoopTransport::find(NodeAddress addr) const {
  // A handler addressing its own node skips the registry lock.
  if (NodeLoop* self = NodeLoop::current(this);
      self != nullptr && self->addr() == addr) {
    return self;
  }
  const sync::ReaderLock lock(registry_mu_);
  auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? nullptr : it->second;
}

std::vector<NodeLoop*> LoopTransport::snapshot_nodes() const {
  const sync::ReaderLock lock(registry_mu_);
  std::vector<NodeLoop*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

void LoopTransport::count_tx(NodeLoop* src, const Payload& msg) {
  const std::size_t bytes = msg.wire_size();
  if (src != nullptr) src->count_tx(bytes);
  transmissions_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
}

void LoopTransport::arm_timer(NodeAddress addr, double delay_s,
                              std::uint64_t token) {
  if (NodeLoop* n = find(addr); n != nullptr) {
    n->arm(clk::steady_now() + clk::seconds_to_duration(delay_s), token);
  }
}

void LoopTransport::execute(NodeAddress addr, std::function<void()> fn) {
  if (NodeLoop* n = find(addr); n != nullptr && n->up()) {
    n->execute(std::move(fn));
  }
}

void LoopTransport::pull_egress(NodeAddress addr) {
  if (NodeLoop* n = find(addr); n != nullptr) n->pull_egress();
}

void LoopTransport::crash(NodeAddress addr) {
  assert(addr.kind == NodeAddress::Kind::kServer &&
         "only server crashes are detected by peers");
  if (NodeLoop* n = find(addr); n != nullptr) {
    // Down at once: no send or delivery after this. The node's own loop
    // severs what it owns at its next wake-up.
    if (!n->mark_down()) return;
    n->post_sever();
  }
  schedule_crash_notice(static_cast<ProcessId>(addr.id));
}

bool LoopTransport::is_up(NodeAddress addr) const {
  if (const NodeLoop* n = find(addr); n != nullptr) return n->up();
  return addr.kind != NodeAddress::Kind::kServer ||
         !crash_detected(static_cast<ProcessId>(addr.id));
}

bool LoopTransport::crash_detected(ProcessId p) const {
  const sync::MutexLock lock(crash_mu_);
  return crash_detected_.contains(p);
}

void LoopTransport::schedule_crash_notice(ProcessId crashed) {
  {
    const sync::MutexLock lock(crash_mu_);
    if (!crash_detected_.insert(crashed).second) return;  // already noticed
  }
  const clk::SteadyTime at =
      clk::steady_now() + clk::seconds_to_duration(detection_delay_);
  for (NodeLoop* n : snapshot_nodes()) {
    if (n->up()) n->arm(at, 0, crashed);
  }
}

std::vector<obs::LinkCounters> LoopTransport::link_counters() const {
  std::vector<obs::LinkCounters> out;
  for (const NodeLoop* n : snapshot_nodes()) out.push_back(n->counters());
  return out;
}

bool LoopTransport::wait_quiescent(double timeout_s) {
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(timeout_s);
  for (;;) {
    // Acceptance counts are read before and after the sweep: a handler that
    // ran in between either accepted a message somewhere (a count moves) or
    // was seen busy.
    const std::vector<NodeLoop*> nodes = snapshot_nodes();
    std::uint64_t accepted = 0;
    bool quiet = true;
    for (const NodeLoop* n : nodes) {
      accepted += n->accepted();
      quiet = quiet && n->quiet();
    }
    for (const NodeLoop* n : nodes) accepted -= n->accepted();
    if (quiet && accepted == 0) return true;
    if (clk::steady_now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace hts::net
