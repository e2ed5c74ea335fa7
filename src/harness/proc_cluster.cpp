#include "harness/proc_cluster.h"

#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/clock.h"
#include "core/client.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/transport_hosts.h"
#include "net/tcp_transport.h"

namespace hts::harness {

namespace {

constexpr const char* kChildFlag = "--hts-proc-server";

/// True when every port of a deployment's window — n server ports at
/// `base + id` plus the parent client's `base + bias` — binds on loopback
/// right now. The probe sockets use SO_REUSEADDR exactly like the real
/// listeners, so TIME_WAIT remnants don't fail the probe but a live
/// listener does.
bool port_window_free(std::uint16_t base, std::size_t n_servers) {
  std::vector<int> fds;
  fds.reserve(n_servers + 1);
  bool ok = true;
  const auto try_bind = [&fds](std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    fds.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
  };
  for (std::size_t id = 0; ok && id < n_servers; ++id) {
    ok = try_bind(static_cast<std::uint16_t>(base + id));
  }
  if (ok) {
    ok = try_bind(
        static_cast<std::uint16_t>(base + net::TcpTransport::kClientPortBias));
  }
  for (const int fd : fds) ::close(fd);
  return ok;
}

/// Ports must be unique per concurrently running deployment (parallel
/// ctest runs many ProcCluster instances at once, and unrelated tests
/// grab ephemeral ports anywhere above 32768). A pid-derived candidate
/// seeds the search, but every candidate window is probe-bound before
/// use — the pid only de-correlates where concurrent instances start
/// probing; the bind is what guarantees the window is actually free.
std::uint16_t pick_base_port(std::size_t n_servers) {
  const auto pid = static_cast<std::uint32_t>(::getpid());
  for (std::uint32_t attempt = 0; attempt < 512; ++attempt) {
    // Candidates stay in [10000, 30000): below Linux's default ephemeral
    // range, so the kernel never hands one of our ports to an unrelated
    // outgoing connection between the probe and the children's binds.
    const auto base = static_cast<std::uint16_t>(
        10000 + ((pid * 509 + attempt * 7919) % 20000));
    if (port_window_free(base, n_servers)) return base;
  }
  throw std::runtime_error("ProcCluster: no free loopback port window");
}

/// SIGTERM → one byte down the self-pipe; the child's main thread blocks on
/// the read end (signal-handler-safe shutdown with no polling).
int g_term_pipe[2] = {-1, -1};
extern "C" void on_sigterm(int) {
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_term_pipe[1], &b, 1);
}

[[noreturn]] void run_child(ProcessId id, std::size_t n,
                            std::uint16_t base_port, double detection_delay_s,
                            std::size_t max_batch) {
  if (::pipe(g_term_pipe) != 0) ::_exit(126);
  struct sigaction sa{};
  sa.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);

  // One ring, so global ids are local ids. Reconfiguration cannot cross a
  // process boundary: the host runs without a migration control plane.
  core::ServerOptions sopts;
  sopts.max_batch = max_batch;
  net::TcpTransport transport(tcp_options(detection_delay_s, base_port, n));
  TransportServerHost host(transport, id, n, id, 0, sopts);
  host.register_node();
  try {
    transport.start();
  } catch (const std::exception&) {
    ::_exit(125);  // mesh never formed (a peer died before starting)
  }
  char b = 0;
  while (::read(g_term_pipe[0], &b, 1) < 0 && errno == EINTR) {
  }
  transport.stop();  // graceful: byes on every connection
  ::_exit(0);
}

}  // namespace

bool ProcCluster::serve_child(int argc, char** argv) {
  if (argc < 7 || std::strcmp(argv[1], kChildFlag) != 0) return false;
  const auto id = static_cast<ProcessId>(std::strtoul(argv[2], nullptr, 10));
  const auto n = static_cast<std::size_t>(std::strtoul(argv[3], nullptr, 10));
  const auto base =
      static_cast<std::uint16_t>(std::strtoul(argv[4], nullptr, 10));
  const double delay = std::strtod(argv[5], nullptr);
  const auto max_batch =
      static_cast<std::size_t>(std::strtoul(argv[6], nullptr, 10));
  run_child(id, n, base, delay, max_batch);  // never returns
}

// ----------------------------------------------------------------- cluster

ProcCluster::ProcCluster(ProcClusterConfig cfg) : cfg_(cfg) {
  base_port_ = cfg_.base_port;
}

ProcCluster::~ProcCluster() { stop(); }

void ProcCluster::start() {
  if (started_) return;
  // Probe immediately before forking so the free window stays free for the
  // few milliseconds until the children's listeners bind it for real.
  if (base_port_ == 0) base_port_ = pick_base_port(cfg_.n_servers);
  children_.assign(cfg_.n_servers, -1);
  const std::string n_s = std::to_string(cfg_.n_servers);
  const std::string base_s = std::to_string(base_port_);
  const std::string delay_s = std::to_string(cfg_.detection_delay_s);
  const std::string batch_s = std::to_string(cfg_.max_batch);
  for (std::size_t id = 0; id < cfg_.n_servers; ++id) {
    const std::string id_s = std::to_string(id);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("ProcCluster: fork failed");
    if (pid == 0) {
      // exec immediately: the child must not run with the parent's threads'
      // state (only fork+exec is sanitizer-safe from a threaded process).
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // no orphans if the parent dies
      const char* args[] = {"/proc/self/exe", kChildFlag,    id_s.c_str(),
                            n_s.c_str(),      base_s.c_str(), delay_s.c_str(),
                            batch_s.c_str(),  nullptr};
      ::execv("/proc/self/exe", const_cast<char* const*>(args));
      ::_exit(127);
    }
    children_[id] = pid;
  }

  transport_ = std::make_unique<net::TcpTransport>(
      tcp_options(cfg_.detection_delay_s, base_port_, cfg_.n_servers));
  core::ClientOptions copts;
  copts.n_servers = cfg_.n_servers;
  copts.topology = core::Topology::single(cfg_.n_servers);
  copts.preferred_server = 0;
  copts.retry_timeout = cfg_.client_retry_timeout_s;
  copts.max_inflight = 8;
  client_ = std::make_unique<TransportClientHost>(
      *transport_, 0, copts, clk::steady_now(), /*history=*/nullptr);
  client_->register_node();
  transport_->start();  // mesh retries until every child is listening
  started_ = true;
}

void ProcCluster::stop() {
  // No started_ gate: start() may throw after forking (mesh-dial timeout,
  // client bind failure), and those children block on the term pipe holding
  // the port window until killed — reap any pid in children_ regardless.
  for (pid_t& pid : children_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(5.0);
  for (pid_t& pid : children_) {
    if (pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || r < 0) break;
      if (clk::steady_now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid = -1;
  }
  if (transport_) transport_->stop();
  started_ = false;
}

void ProcCluster::put(ObjectId object, Value v) {
  (void)client_->run(/*is_read=*/false, object, std::move(v));
}

Value ProcCluster::get(ObjectId object) {
  return client_->run(/*is_read=*/true, object, Value()).value;
}

void ProcCluster::kill_server(ProcessId p) {
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= children_.size() || children_[idx] <= 0) return;
  ::kill(children_[idx], SIGKILL);  // kernel closes its sockets: a raw break
  int status = 0;
  ::waitpid(children_[idx], &status, 0);
  children_[idx] = -1;
}

bool ProcCluster::server_up(ProcessId p) const {
  return transport_->is_up(net::NodeAddress::server(p));
}

bool ProcCluster::wait_server_down(ProcessId p, double timeout_s) const {
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(timeout_s);
  while (server_up(p)) {
    if (clk::steady_now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

net::Transport& ProcCluster::transport() { return *transport_; }

}  // namespace hts::harness
