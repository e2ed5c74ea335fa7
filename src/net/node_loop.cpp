#include "net/node_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <climits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/futex.h"

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

constexpr clk::SteadyTime kNever = futex::kNever;

/// The first entry of a registry's address index not below `addr`.
auto first_not_below(auto& by_addr, NodeAddress addr) {
  return std::lower_bound(
      by_addr.begin(), by_addr.end(), addr,
      [](const auto& entry, NodeAddress a) { return entry.first < a; });
}

}  // namespace

// ------------------------------------------------------------ NodeLoop

NodeLoop::NodeLoop(NodeAddress addr, Transport::MessageHandler on_message,
                   Transport::CrashHandler on_crash,
                   Transport::TimerHandler on_timer)
    : addr_(addr),
      on_message_(std::move(on_message)),
      on_crash_(std::move(on_crash)),
      on_timer_(std::move(on_timer)) {}

NodeLoop::~NodeLoop() {
  for (const int fd : {epoll_fd_, wake_fd_}) {
    if (fd >= 0) ::close(fd);
  }
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
  // inside this one, or another thread's — is handled here, until none is
  // left, before the loop could take it.
  for (int round = 0; round < kHolderDrainCap && !mailbox_empty(); ++round) {
    drain_mailbox();
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
  post(Mail{from, std::move(msg), {}});
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
  post(Mail{{}, nullptr, std::move(fn)});
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
    // On a parked fd-less loop the closure may run inline; try_run_inline
    // then wakes the loop if this deadline precedes the one it sleeps until.
    execute([this, t] {
      run_mu_.assert_held();
      push_timer(t);
    });
  }
}

void NodeLoop::push_timer(Timer t) {
  t.seq = timer_seq_++;
  timers_.push_back(t);
  std::push_heap(timers_.begin(), timers_.end(), kLater);
}

bool NodeLoop::quiet() const {
  // Nothing runs on an undriven node until its next drive (file comment).
  if (driven_ && !driving_.load(std::memory_order_acquire)) return true;
  {
    const sync::MutexLock lock(mu_);
    if (!mailbox_.empty()) return false;
  }
  // A crashed node owes nothing: its notices and work are never done.
  return !busy_.load(std::memory_order_acquire) &&
         (!up() || (notices_.load(std::memory_order_acquire) == 0 &&
                    consumed_.load(std::memory_order_acquire) ==
                        accepted_.load(std::memory_order_acquire)));
}

void NodeLoop::count_tx(std::size_t bytes) {
  tx_messages_.fetch_add(1, std::memory_order_relaxed);
  tx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

obs::LinkCounters NodeLoop::counters() const {
  const char prefix = addr_.kind == NodeAddress::Kind::kServer ? 's' : 'c';
  obs::LinkCounters c{prefix + std::to_string(addr_.id),
                      tx_messages_.load(std::memory_order_relaxed),
                      tx_bytes_.load(std::memory_order_relaxed),
                      rx_messages_.load(std::memory_order_relaxed),
                      rx_bytes_.load(std::memory_order_relaxed)};
  if (epoll_fd_ < 0) {  // a futex-parked loop
    c.loop_wakes = loop_wakes_.load(std::memory_order_relaxed);
    c.parks = parks_.load(std::memory_order_relaxed);
  } else {
    c.ready_polls = ready_polls_.load(std::memory_order_relaxed);
    c.ready_poll_hits = ready_poll_hits_.load(std::memory_order_relaxed);
  }
  return c;
}

void NodeLoop::use_epoll() {
  if (epoll_fd_ >= 0) return;
  assert(!thread_.joinable() && "the epoll set is created before start()");
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

void NodeLoop::watch(int op, int fd, std::uint32_t events, void* tag) {
  assert(tag != nullptr && "the null tag is the loop's wake fd");
  use_epoll();
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
  stopping_ = &stopping;
  if (driven_) return;  // drive() runs its turns
  // Busy until the loop's first before_block: egress staged before start()
  // (the TCP mesh's preambles) is not flushed yet.
  busy_.store(true, std::memory_order_release);
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
  if (parked_.load(std::memory_order_seq_cst)) {
    loop_wakes_.fetch_add(1, std::memory_order_relaxed);
    futex::wake(wake_seq_);
  }
}

void NodeLoop::join() {
  if (thread_.joinable()) thread_.join();
  if (driven_ && hooks_ != nullptr) {
    // The wake made a drive's epoll_wait return and the drive give up.
    const sync::MutexLock running(run_mu_);
    hooks_->on_stop(*this);
  }
}

bool NodeLoop::drive(const std::function<void()>& submit,
                     const std::function<bool()>& done,
                     clk::SteadyTime deadline) {
  assert(driven_);
  const sync::MutexLock running(run_mu_);
  if (stopping_ == nullptr || stopping_->load(std::memory_order_acquire)) {
    return false;
  }
  // The driving thread does this node's work as a loop thread would:
  // own-node lookups, direct staging and timer pushes.
  NodeLoop* const caller = tl_node;
  tl_node = this;
  driving_.store(true, std::memory_order_release);
  busy_.store(true, std::memory_order_release);
  expect();
  if (up()) submit();
  settle(1);
  bool ok = true;
  for (;;) {
    if (done()) break;
    if (stopping_->load(std::memory_order_acquire) ||
        clk::steady_now() >= deadline) {
      ok = false;
      break;
    }
    busy_.store(hooks_->before_block(*this), std::memory_order_release);
    if (!turn(*hooks_, deadline)) {
      ok = false;
      break;
    }
  }
  // What the last turn staged leaves now; bytes a full socket refused wait
  // for the next drive.
  (void)hooks_->before_block(*this);
  busy_.store(false, std::memory_order_release);
  driving_.store(false, std::memory_order_release);
  tl_node = caller;
  return ok;
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
      // crash() marked the node down and woke the loop.
      if (!up() && !severed_) {
        severed_ = true;
        hooks.on_sever(*this);
      }
      busy_.store(hooks.before_block(*this), std::memory_order_release);
      if (epoll_fd_ >= 0) {
        if (!turn(hooks, kNever)) break;
      } else {
        park(seq);
        busy_.store(true, std::memory_order_release);
        drain_mailbox();
        fire_timers();
      }
    }
    hooks.on_stop(*this);
  }
  tl_node = nullptr;
  tl_loop = nullptr;
}

bool NodeLoop::turn(Hooks& hooks, clk::SteadyTime until) {
  if (wait_events(hooks, /*block=*/true, until) < 0) return false;
  fire_timers();
  // Staged egress waits for what is already ready, so one flush carries
  // both; a round that finds nothing ends the turn.
  for (int round = 0; round < kReadyRounds && hooks.has_staged(*this);
       ++round) {
    const int ready = wait_events(hooks, /*block=*/false, until);
    if (ready < 0) return false;
    ready_polls_.fetch_add(1, std::memory_order_relaxed);
    if (ready > 0) ready_poll_hits_.fetch_add(1, std::memory_order_relaxed);
    fire_timers();
    if (ready == 0) break;
  }
  return true;
}

int NodeLoop::wait_events(Hooks& hooks, bool block, clk::SteadyTime until) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int timeout_ms = block ? -1 : 0;
  if (block && !timers_.empty()) until = std::min(until, timers_.front().at);
  if (block && until != kNever) {
    const auto wait = until - clk::steady_now();
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
  if (nev < 0) return err == EINTR ? 0 : -1;
  for (int i = 0; i < nev; ++i) {
    if (events[i].data.ptr == nullptr) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof(drained));
      drain_mailbox();
    } else {
      hooks.on_io(*this, events[i].data.ptr, events[i].events);
    }
  }
  return nev;
}

void NodeLoop::park(std::uint32_t seq) {
  if (!mailbox_empty()) return;
  park_deadline_ = timers_.empty() ? kNever : timers_.front().at;
  parked_.store(true, std::memory_order_seq_cst);
  parks_.fetch_add(1, std::memory_order_relaxed);
  {
    const sync::MutexUnlock unlocked(run_mu_);
    futex::wait(wake_seq_, seq, park_deadline_);
  }
  parked_.store(false, std::memory_order_release);
}

void NodeLoop::drain_mailbox() {
  {
    // Swapping keeps both vectors' capacity: no allocation in steady state.
    const sync::MutexLock lock(mu_);
    inbox_.swap(mailbox_);
  }
  for (Mail& m : inbox_) {
    if (m.msg != nullptr) {
      const std::size_t bytes = m.msg->wire_size();
      dispatch(m.peer, std::move(m.msg), bytes);
    } else if (up()) {
      m.fn();
    }
    settle(1);
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
    : detection_delay_(detection_delay_s) {
  const sync::MutexLock lock(registry_mu_);
  registries_.push_back(std::make_unique<const Registry>());
  registry_.store(registries_.back().get(), std::memory_order_release);
}

LoopTransport::~LoopTransport() { stop(); }

std::unique_ptr<NodeLoop> LoopTransport::make_node(NodeAddress addr,
                                                   MessageHandler on_message,
                                                   CrashHandler on_crash,
                                                   TimerHandler on_timer) {
  return std::make_unique<NodeLoop>(addr, std::move(on_message),
                                    std::move(on_crash), std::move(on_timer));
}

void LoopTransport::register_node(NodeAddress addr, MessageHandler on_message,
                                  CrashHandler on_crash, TimerHandler on_timer,
                                  LinkReadyHandler on_link_ready) {
  std::unique_ptr<NodeLoop> node =
      make_node(addr, std::move(on_message), std::move(on_crash),
                std::move(on_timer));
  node->set_link_ready(std::move(on_link_ready));
  add_node(std::move(node));
}

void LoopTransport::add_node(std::unique_ptr<NodeLoop> node) {
  const NodeAddress addr = node->addr();
  NodeLoop* raw = node.get();
  const bool live = started_.load(std::memory_order_acquire) && !stopping();
  // A driven node's start() only hands it the hooks: done before anyone can
  // find it, so a stop() that finds it sees them.
  if (live && raw->driven()) raw->start(*this, stopping_);
  {
    // Publishes a new snapshot; readers of the old one keep it valid.
    const sync::MutexLock lock(registry_mu_);
    auto next = std::make_unique<Registry>(*registries_.back());
    next->nodes.push_back(raw);
    const auto at = first_not_below(next->by_addr, addr);
    assert(at == next->by_addr.end() || at->first != addr);
    next->by_addr.insert(at, {addr, raw});
    owned_.push_back(std::move(node));
    registries_.push_back(std::move(next));
    registry_.store(registries_.back().get(), std::memory_order_release);
  }
  if (live && !raw->driven()) {
    raw->start(*this, stopping_);  // live registration (ring spawn)
  }
}

void LoopTransport::start() {
  assert(!started_.load(std::memory_order_acquire));
  started_.store(true, std::memory_order_release);
  const std::vector<NodeLoop*>& nodes = snapshot_nodes();
  on_start(nodes);
  for (NodeLoop* n : nodes) n->start(*this, stopping_);
}

void LoopTransport::stop() {
  if (!started_.load(std::memory_order_acquire) ||
      stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const std::vector<NodeLoop*>& nodes = snapshot_nodes();
  for (NodeLoop* n : nodes) n->wake();
  for (NodeLoop* n : nodes) n->join();
}

NodeLoop* LoopTransport::find(NodeAddress addr) const {
  const auto& by_addr = registry_.load(std::memory_order_acquire)->by_addr;
  const auto at = first_not_below(by_addr, addr);
  return at != by_addr.end() && at->first == addr ? at->second : nullptr;
}

const std::vector<NodeLoop*>& LoopTransport::snapshot_nodes() const {
  return registry_.load(std::memory_order_acquire)->nodes;
}

void LoopTransport::count_tx(NodeLoop* src, const Payload& msg) {
  if (src != nullptr) src->count_tx(msg.wire_size());
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
    // severs what it owns when this wakes it.
    if (!n->mark_down()) return;
    n->wake();
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
    const std::vector<NodeLoop*>& nodes = snapshot_nodes();
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
