// The multi-process instantiations: Network::create for NetworkMode::kProcess
// and kRemote, and the node-process body the two share.
//
// Every non-root node is an OS process running one NodeRuntime and one
// net::EventLoop over its tree-edge sockets; the modes differ only in how
// those processes and sockets come to exist:
//
//  * kProcess forks the tree recursively — each node process forks its own
//    children, so every edge's socketpair is created in the common ancestor
//    and inherited by exactly the two endpoint processes.  The node's
//    NodeConfig travels down through fork() as a plain argument.
//  * kRemote gives every node nothing but a bootstrap address.  Each spawned
//    node dials the front-end's bootstrap listener, learns the topology and
//    its parent's address from a NodeConfig frame, binds its own
//    child-facing listener, dials its parent with a LinkHello, accepts its
//    children, and only then reports BootReady.
//
// From there on both run Network::serve_node: the same edge wiring, flow
// control, recovery, fault injection and telemetry over the same event
// loop.  The front-end likewise feeds the root's child edges and every
// re-adopted orphan into one EventLoop in both modes, so there is one
// adoption path and one teardown.
#include "net/remote.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/coalesce.hpp"
#include "core/delegates.hpp"
#include "core/flow_control.hpp"
#include "core/protocol.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "recovery/adoption.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace tbon {
namespace {

// ---- edge plumbing (both modes, both ends of an edge) -----------------------

/// Kernel buffer sizing for a credit-controlled edge: enough for one window
/// of typical frames, clamped so the defaults never shrink below what the
/// zero-copy bulk path needs nor balloon into an unaccounted queue.
std::size_t fc_socket_bytes(const FlowControlOptions& fc) {
  return std::clamp<std::size_t>(std::size_t{fc.window()} * 8192,
                                 std::size_t{256} << 10, std::size_t{4} << 20);
}

/// Return credits to the channel's sender in-band; the frame is exempt
/// control traffic, so it passes wrappers unimpeded and its send never
/// blocks the granting thread.
std::function<void(std::uint32_t)> fc_frame_granter(std::shared_ptr<Link> link) {
  return [link = std::move(link)](std::uint32_t n) {
    link->send(make_credit_packet(n));
  };
}

/// The send side of one tree edge.
struct Edge {
  std::shared_ptr<Link> raw;      ///< the NetLink itself (credit grants ride it)
  std::shared_ptr<Link> channel;  ///< raw, coalesced and/or flow-controlled
  std::shared_ptr<FlowControlledLink> fc_link;  ///< null when fc is off
};

/// Builds the edges of one runtime on its event loop: a node process's
/// parent and children, and the front-end root's children and adoptees.
struct EdgeFactory {
  net::EventLoop& loop;
  NodeRuntime& runtime;
  const FlowControlOptions& fc;
  const BatchingOptions& batching;
  std::shared_ptr<BatchFlusher> flusher;
  const net::FramingFactory& framing;

  /// Channel options delivering into the runtime.  With flow control on,
  /// `gate` is the sender-side gate the edge's in-band grants refill: made
  /// here when null, else re-baselined to a full window (a re-adopted parent
  /// edge: the adopter granted nothing yet).
  net::ChannelOptions channel(int fd, Origin origin, std::uint32_t slot,
                              std::shared_ptr<CreditGate>& gate) const {
    net::ChannelOptions options;
    options.inbox = runtime.inbox();
    options.origin = origin;
    options.slot = slot;
    if (fc.enabled) {
      set_socket_buffers(fd, fc_socket_bytes(fc));
      if (gate) {
        gate->reset();
      } else {
        gate = std::make_shared<CreditGate>(fc.window());
        gate->set_drain_hook(credit_wake_hook(runtime.inbox()));
      }
      options.credits = net::CreditSink{gate, 0};
    }
    if (framing) options.framing = framing();
    return options;
  }

  /// FlowControlledLink(CoalescingLink(raw)): credits are accounted per
  /// packet before buffering, and the gate drives the coalescer's pressure
  /// flushes.  Re-adoption edges skip the coalescer.
  Edge wrap(std::shared_ptr<Link> raw, const std::shared_ptr<CreditGate>& gate,
            bool coalesce, bool fail_fast_throws) const {
    Edge edge;
    edge.raw = raw;
    edge.channel = coalesce ? maybe_coalesce(raw, batching, &runtime.metrics(),
                                             gate, flusher)
                            : raw;
    if (fc.enabled) {
      edge.fc_link = std::make_shared<FlowControlledLink>(
          edge.channel, gate, fc, &runtime.metrics(), fail_fast_throws,
          runtime.tenants());
      edge.channel = edge.fc_link;
    }
    return edge;
  }

  /// Hand a connected socket to the loop as a channel and wrap its send
  /// side.  With `paused`, reads stay masked until loop.resume(*paused).
  Edge open(Fd fd, Origin origin, std::uint32_t slot,
            std::shared_ptr<CreditGate>& gate, bool coalesce,
            bool fail_fast_throws, net::ConnRef* paused = nullptr) const {
    net::ChannelOptions options = channel(fd.get(), origin, slot, gate);
    options.paused = paused != nullptr;
    auto raw = loop.add_channel(std::move(fd), std::move(options), paused);
    return wrap(std::move(raw), gate, coalesce, fail_fast_throws);
  }
};

/// Wire `edge` as child `slot` of `runtime`.  Grants for upstream traffic
/// ride the raw link: exempt control frames must never wait behind a
/// coalescer buffer.
void attach_child(NodeRuntime& runtime, std::uint32_t slot, const Edge& edge) {
  if (edge.fc_link) {
    runtime.register_fc_link(edge.fc_link);
    runtime.set_child_granter(slot, fc_frame_granter(edge.raw));
  }
  runtime.add_child_link(std::make_unique<SharedLink>(edge.channel));
}

/// The host part of a placement spec ("host" or "host:port").
std::string host_of(const std::string& spec) { return parse_endpoint(spec, 0).host; }

void reap(const std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

// ---- exec/ssh launcher pid registry -----------------------------------------

std::mutex g_exec_mutex;
std::vector<pid_t> g_exec_pids;

std::vector<pid_t> take_spawned_pids() {
  std::lock_guard<std::mutex> lock(g_exec_mutex);
  return std::exchange(g_exec_pids, {});
}

void spawn_command(const std::vector<std::string>& argv) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw TransportError("fork failed");
  if (pid == 0) {
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    std::fprintf(stderr, "tbon launcher: exec %s failed: %s\n", args[0],
                 std::strerror(errno));
    std::_Exit(127);
  }
  std::lock_guard<std::mutex> lock(g_exec_mutex);
  g_exec_pids.push_back(pid);
}

// ---- front-end side state ---------------------------------------------------

/// Everything the front-end's side of a multi-process network owns, stored
/// type-erased in Network::fe_state_ so core headers stay independent of the
/// net subsystem.  The EventLoop must be constructed after every fork (its
/// epoll/eventfd/thread must not leak into children), so construction of
/// this whole struct happens post-spawn; listeners bind pre-fork and are
/// moved in.
struct FrontEndState {
  net::EventLoop loop;
  FlowControlOptions fc;
  BatchingOptions batching;
  std::shared_ptr<BatchFlusher> flusher;  ///< deadline service, FE side
  net::FramingFactory framing;            ///< remote mode only
  NodeRuntime* root = nullptr;
  std::vector<Edge> root_children;        ///< slot-indexed
  std::vector<pid_t> pids;                ///< node processes this one reaps

  // Remote-mode bootstrap (loop thread, except the counters under `mutex`).
  std::unique_ptr<TcpListener> boot_listener;
  std::unique_ptr<TcpListener> link_listener;
  std::string bind_host;
  int handshake_timeout_ms = 10'000;
  Topology topology = Topology::single();
  net::NodeConfig base_config;
  struct NodeBoot {
    net::ConnRef conn;
    bool config_sent = false;
    bool ready = false;
  };
  std::unordered_map<NodeId, NodeBoot> boots;
  std::unordered_map<NodeId, std::string> child_endpoint;  ///< "host:port"

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t ready = 0;
  std::size_t link_count = 0;
  bool failed = false;
  std::string failure;

  explicit FrontEndState(NodeRuntime& root_runtime)
      : loop(&root_runtime.metrics()), root(&root_runtime) {}

  EdgeFactory edges() {
    return EdgeFactory{loop, *root, fc, batching, flusher, framing};
  }
};

void fe_fail(FrontEndState* st, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    if (!st->failed) {
      st->failed = true;
      st->failure = why;
    }
  }
  st->cv.notify_all();
}

/// Where `parent`'s child-facing listener lives; nullopt while the parent
/// has not reported its BootListen yet (the child's config is deferred).
std::optional<std::string> fe_parent_endpoint(FrontEndState* st, NodeId parent) {
  if (parent == st->topology.root()) {
    return st->bind_host + ":" + std::to_string(st->link_listener->port());
  }
  const auto it = st->child_endpoint.find(parent);
  if (it == st->child_endpoint.end()) return std::nullopt;
  return it->second;
}

/// Send `node` its NodeConfig once both its hello and its parent's listener
/// endpoint are known (whichever arrives last triggers the send).
void fe_try_send_config(FrontEndState* st, NodeId node) {
  const auto it = st->boots.find(node);
  if (it == st->boots.end() || it->second.config_sent) return;
  const auto endpoint = fe_parent_endpoint(st, st->topology.node(node).parent);
  if (!endpoint) return;
  net::NodeConfig config = st->base_config;
  config.parent = *endpoint;
  st->loop.send_frame(it->second.conn, net::encode_node_config(config));
  it->second.config_sent = true;
}

/// Bootstrap-listener frame handler (loop thread).  Throwing tears down
/// just this connection (a hostile or confused dialer), not the front-end;
/// protocol-fatal conditions go through fe_fail instead.
void fe_boot_frame(FrontEndState* st,
                   const std::shared_ptr<std::optional<NodeId>>& whoami,
                   const net::ConnRef& conn, const Bytes& frame) {
  const net::BootFrame type = net::boot_frame_type(frame);
  if (type == net::BootFrame::kHello) {
    const net::BootHello hello = net::decode_boot_hello(frame);
    if (hello.node == st->topology.root() ||
        hello.node >= st->topology.num_nodes()) {
      throw ProtocolError("bootstrap hello from unknown node " +
                          std::to_string(hello.node));
    }
    if (!net::negotiate_version(hello.ver_min, hello.ver_max, net::kProtoMin,
                                net::kProtoMax)) {
      throw ProtocolError("bootstrap protocol version mismatch with node " +
                          std::to_string(hello.node));
    }
    if (st->boots.count(hello.node) != 0) {
      throw ProtocolError("duplicate bootstrap hello for node " +
                          std::to_string(hello.node));
    }
    *whoami = hello.node;
    st->boots[hello.node] = FrontEndState::NodeBoot{conn, false, false};
    fe_try_send_config(st, hello.node);
    return;
  }
  if (!whoami->has_value()) throw ProtocolError("bootstrap frame before hello");
  const NodeId node = **whoami;
  if (type == net::BootFrame::kListen) {
    const net::BootListen listen = net::decode_boot_listen(frame);
    if (listen.port != 0) {
      st->child_endpoint[node] = host_of(st->topology.node(node).host) + ":" +
                                 std::to_string(listen.port);
    }
    // The listener's children may already be waiting for their configs.
    for (const NodeId child : st->topology.node(node).children) {
      fe_try_send_config(st, child);
    }
    return;
  }
  if (type == net::BootFrame::kReady) {
    const net::BootReady ready = net::decode_boot_ready(frame);
    if (!ready.ok) {
      fe_fail(st, "node " + std::to_string(node) +
                      " failed to start: " + ready.error);
      return;
    }
    st->boots[node].ready = true;
    st->loop.close_connection(conn);  // its bootstrap job is done
    {
      std::lock_guard<std::mutex> lock(st->mutex);
      ++st->ready;
    }
    st->cv.notify_all();
    return;
  }
  throw ProtocolError("unexpected bootstrap frame");
}

/// Link-listener frame handler (loop thread): a root child's LinkHello.
/// Replies LinkWelcome and promotes the socket straight into the packet
/// plane; the channel delivers into the root inbox (which buffers until the
/// root runtime thread starts), so out-of-order arrival is harmless.
void fe_link_hello(FrontEndState* st, const net::ConnRef& conn, const Bytes& frame) {
  const net::LinkHello hello = net::decode_link_hello(frame);
  const auto& children = st->topology.node(st->topology.root()).children;
  const auto pos = std::find(children.begin(), children.end(), NodeId{hello.node});
  if (pos == children.end()) {
    throw ProtocolError("link hello from node " + std::to_string(hello.node) +
                        ", which is not a root child");
  }
  const auto slot = static_cast<std::uint32_t>(pos - children.begin());
  if (st->root_children[slot].channel) {
    throw ProtocolError("duplicate link hello for root child slot " +
                        std::to_string(slot));
  }
  const auto version = net::negotiate_version(hello.ver_min, hello.ver_max,
                                              net::kProtoMin, net::kProtoMax);
  if (!version) throw ProtocolError("link protocol version mismatch");
  const std::uint32_t window = st->fc.enabled ? st->fc.window() : 0;
  if (hello.credit_window != window) {
    throw ProtocolError("credit window mismatch on root child link: theirs " +
                        std::to_string(hello.credit_window) + ", ours " +
                        std::to_string(window));
  }
  // The welcome must hit the wire before any packet-plane frame; raw frames
  // and packet frames share one FIFO send path, so sending it first is
  // enough even though promote() follows immediately.
  st->loop.send_frame(conn, net::encode_link_welcome(net::LinkWelcome{
                                *version, st->topology.root(), slot, window}));
  const EdgeFactory edges = st->edges();
  std::shared_ptr<CreditGate> gate_down;
  st->loop.promote(conn, edges.channel(conn->fd(), Origin::kChild, slot, gate_down));
  st->root_children[slot] =
      edges.wrap(st->loop.link(conn), gate_down, /*coalesce=*/true,
                 /*fail_fast_throws=*/false);
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    ++st->link_count;
  }
  st->cv.notify_all();
}

/// Failure/shutdown teardown: stop the loop, then make sure no node process
/// this one spawned outlives the tree.
void fe_teardown(FrontEndState* st, bool force) {
  st->loop.stop();
  if (force) {
    for (const pid_t pid : st->pids) ::kill(pid, SIGKILL);
    reap(st->pids);
  } else {
    // Orderly path: the shutdown handshake already told every node to exit;
    // give stragglers a grace period, then escalate.
    // The poll interval starts short: a node exits within a millisecond
    // of its acknowledgement, and shutdown latency is this wait.
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    for (const pid_t pid : st->pids) {
      auto pause = std::chrono::microseconds(50);
      for (;;) {
        int status = 0;
        const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
        if (reaped == pid || (reaped < 0 && errno == ECHILD)) break;
        if (now_ns() >= deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(pause);
        pause = std::min(pause * 2, std::chrono::microseconds(5'000));
      }
    }
  }
  st->pids.clear();
  st->boot_listener.reset();
  st->link_listener.reset();
}

}  // namespace

// ---- node-process side ------------------------------------------------------

void Network::serve_node(const net::NodeConfig& config, NodeId id, Fd parent_fd,
                         std::vector<Fd> child_fds,
                         const std::function<void(BackEnd&)>& backend_main,
                         const net::FramingFactory& framing,
                         const std::function<void()>& on_ready) {
  net::set_zero_copy(config.zero_copy);
  const Topology& topo = config.topology;
  const bool leaf = topo.is_leaf(id);
  const FlowControlOptions& fc = config.flow_control;

  std::unique_ptr<BackEnd> backend;
  std::unique_ptr<BackEndDelegate> delegate;
  if (leaf) {
    backend.reset(new BackEnd(topo.leaf_rank(id), nullptr));
    delegate = std::make_unique<BackEndDelegate>(*backend);
  }
  NodeRuntime runtime(topo, id, FilterRegistry::instance(), delegate.get());
  if (fc.enabled) runtime.set_flow_control(fc);
  runtime.set_execution(config.execution);
  if (!config.fault_plan.empty()) {
    // Every node process builds its own injector from the same plan; the
    // counters are per-process, which is exactly the per-node semantics.
    runtime.set_fault_injector(std::make_shared<FaultInjector>(config.fault_plan));
  }
  // An injected crash must look like a real one: no stack unwinding, no
  // flushes, no handshakes.
  runtime.set_crash_handler([] { std::_Exit(0); });
  if (config.heartbeat.enabled()) runtime.set_recovery(config.heartbeat);

  // Declared after the runtime so the loop stops first if an exception
  // unwinds.  Each node process services its own coalescer deadlines (the
  // flusher thread starts lazily on first attach).
  net::EventLoop loop(&runtime.metrics());
  const EdgeFactory edges{loop, runtime, fc, config.batching,
                          std::make_shared<BatchFlusher>(), framing};

  // A leaf's back-end handle and its runtime share one relinkable stack, so
  // re-adoption swaps the channel underneath both without either noticing;
  // grants for downstream traffic ride the relink to follow the live edge.
  // An interior's grants ride the raw link instead: exempt control frames
  // must never wait behind a coalescer buffer.
  std::shared_ptr<CreditGate> gate_up;
  std::shared_ptr<RelinkableLink> relink;
  const auto set_parent = [&](NodeRuntime& self, const Edge& up) {
    if (up.fc_link) self.register_fc_link(up.fc_link);
    if (leaf) {
      relink->relink(up.channel);
      return;
    }
    if (fc.enabled) self.set_parent_granter(fc_frame_granter(up.raw));
    self.set_parent_link(std::make_unique<SharedLink>(up.channel));
  };
  const Edge up = edges.open(std::move(parent_fd), Origin::kParent, 0, gate_up,
                             /*coalesce=*/true, /*fail_fast_throws=*/leaf);
  if (leaf) {
    relink = std::make_shared<RelinkableLink>(up.channel);
    backend->up_link_ = std::make_unique<SharedLink>(relink);
    runtime.set_parent_link(std::make_unique<SharedLink>(relink));
    if (fc.enabled) runtime.set_parent_granter(fc_frame_granter(relink));
    if (up.fc_link) runtime.register_fc_link(up.fc_link);
  } else {
    set_parent(runtime, up);
  }
  if (!config.rendezvous.empty()) {
    runtime.set_orphan_handler([&](NodeRuntime& self) {
      try {
        const std::uint32_t epoch = self.bump_parent_epoch();
        Fd fd = orphan_reconnect(parse_endpoint(config.rendezvous),
                                 OrphanHello{id, topo.subtree_leaf_ranks(id)});
        // The hello frame is already on the wire (FIFO), so the front-end
        // wires our slot before any data sent from here on.  Reads stay
        // masked until the new parent link is in place.
        net::ConnRef conn;
        set_parent(self, edges.open(std::move(fd), Origin::kParent, epoch, gate_up,
                                    /*coalesce=*/false, leaf, &conn));
        loop.resume(conn);
        self.metrics().net_reconnects.fetch_add(1, std::memory_order_relaxed);
        return true;
      } catch (const std::exception& error) {
        TBON_WARN("node " << id << " re-adoption failed: " << error.what());
        return false;
      }
    });
  }
  for (std::uint32_t slot = 0; slot < child_fds.size(); ++slot) {
    std::shared_ptr<CreditGate> gate_down;
    attach_child(runtime, slot,
                 edges.open(std::move(child_fds[slot]), Origin::kChild, slot,
                            gate_down, /*coalesce=*/true,
                            /*fail_fast_throws=*/false));
  }
  loop.start();
  if (on_ready) on_ready();
  if (leaf) {
    std::jthread service([&runtime] { runtime.run(); });
    if (backend_main) backend_main(*backend);
    // The runtime exits when the shutdown handshake completes.
  } else {
    runtime.run();
  }
  // The runtime's last sends (final telemetry record, shutdown ack) may
  // still sit in a send queue; flush them to the kernel before stop() drops
  // the queues.
  loop.drain(5'000);
  loop.stop();
}

struct Network::ForkedChildren {
  std::vector<Fd> fds;  ///< this process's end of each child edge, slot-indexed
  std::vector<pid_t> pids;
};

Network::ForkedChildren Network::fork_children(
    const net::NodeConfig& config, NodeId id, const std::vector<int>& close_in_child,
    const std::function<void(BackEnd&)>& backend_main) {
  ForkedChildren forked;
  // Parent-side buffered output would be duplicated into children.
  std::fflush(stdout);
  std::fflush(stderr);
  for (const NodeId child : config.topology.node(id).children) {
    auto [mine, theirs] = make_socketpair();
    const pid_t pid = ::fork();
    if (pid < 0) throw TransportError("fork failed");
    if (pid == 0) {
      // In the child: drop every fd that belongs to other edges (and the
      // front-end's listeners), keeping only our end of our own socketpair.
      mine.reset();
      for (Fd& sibling : forked.fds) sibling.reset();
      for (const int fd : close_in_child) ::close(fd);
      int status = 0;
      try {
        ForkedChildren grandchildren =
            fork_children(config, child, {theirs.get()}, backend_main);
        serve_node(config, child, std::move(theirs), std::move(grandchildren.fds),
                   backend_main, {}, {});
        reap(grandchildren.pids);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "tbon node process %u failed: %s\n", child, error.what());
        std::fflush(stderr);
        status = 1;
      }
      std::_Exit(status);
    }
    forked.fds.push_back(std::move(mine));
    forked.pids.push_back(pid);
  }
  return forked;
}

void Network::run_remote_node(NodeId id, const std::string& bootstrap,
                              const std::function<void(BackEnd&)>& backend_main,
                              const net::FramingFactory& framing) {
  Fd boot;
  try {
    boot = tcp_connect(parse_endpoint(bootstrap), 10'000);
    write_frame(boot.get(), net::encode_boot_hello(
                                net::BootHello{net::kProtoMin, net::kProtoMax, id}));
    const auto config_frame = read_frame(boot.get());
    if (!config_frame) {
      throw TransportError("bootstrap connection closed before NodeConfig");
    }
    const net::NodeConfig config = net::decode_node_config(*config_frame);
    const Topology& topo = config.topology;
    if (id >= topo.num_nodes() || id == topo.root()) {
      throw ProtocolError("node id " + std::to_string(id) +
                          " is not a non-root node of the shipped topology");
    }
    const bool leaf = topo.is_leaf(id);
    const auto& children = topo.node(id).children;
    const std::uint32_t window =
        config.flow_control.enabled ? config.flow_control.window() : 0;
    // Bind the child-facing listener before reporting it, then report it
    // before dialing the parent: our children can be told where to find us
    // while we are still waiting for the parent chain to come up.
    std::unique_ptr<TcpListener> child_listener;
    if (!leaf) {
      child_listener =
          std::make_unique<TcpListener>(parse_endpoint(topo.node(id).host, 0));
    }
    write_frame(boot.get(),
                net::encode_boot_listen(net::BootListen{
                    leaf ? std::uint16_t{0} : child_listener->port()}));

    // Dial the parent (riding out its own startup with backoff) and shake
    // hands: LinkHello up, LinkWelcome back.
    Fd parent_fd =
        tcp_connect(parse_endpoint(config.parent), config.handshake_timeout_ms);
    write_frame(parent_fd.get(),
                net::encode_link_hello(net::LinkHello{
                    net::kProtoMin, net::kProtoMax, id, 0, window}));
    const auto welcome_frame = read_frame(parent_fd.get());
    if (!welcome_frame) throw TransportError("parent closed during link handshake");
    if (welcome_frame->size() > net::kMaxHandshakeFrame) {
      throw ProtocolError("oversized link welcome");
    }
    const net::LinkWelcome welcome = net::decode_link_welcome(*welcome_frame);
    if (welcome.credit_window != window) {
      throw ProtocolError("credit window mismatch with parent");
    }

    // Accept our children.  Dialers that are not ours (or malformed) are
    // dropped and the accept loop keeps going until the deadline.
    std::vector<Fd> child_fds(children.size());  // slot-indexed
    if (!leaf) {
      std::size_t have = 0;
      const std::int64_t deadline =
          now_ns() + std::int64_t{config.handshake_timeout_ms} * 1'000'000;
      while (have < children.size()) {
        const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
        if (left_ms <= 0) {
          throw TransportError("timed out waiting for child connections (" +
                               std::to_string(have) + "/" +
                               std::to_string(children.size()) + ")");
        }
        Fd client = child_listener->accept_for(static_cast<int>(left_ms));
        if (!client.valid()) continue;
        try {
          const auto hello_frame = read_frame(client.get());
          if (!hello_frame || hello_frame->size() > net::kMaxHandshakeFrame) continue;
          const net::LinkHello hello = net::decode_link_hello(*hello_frame);
          const auto pos =
              std::find(children.begin(), children.end(), NodeId{hello.node});
          if (pos == children.end()) continue;
          const auto slot = static_cast<std::uint32_t>(pos - children.begin());
          if (child_fds[slot].valid()) continue;
          const auto version = net::negotiate_version(
              hello.ver_min, hello.ver_max, net::kProtoMin, net::kProtoMax);
          if (!version || hello.credit_window != window) continue;
          write_frame(client.get(), net::encode_link_welcome(net::LinkWelcome{
                                        *version, id, slot, window}));
          child_fds[slot] = std::move(client);
          ++have;
        } catch (const CodecError&) {
          continue;  // hostile or garbled hello; drop the socket
        }
      }
      child_listener->close();
    }

    serve_node(config, id, std::move(parent_fd), std::move(child_fds), backend_main,
               framing, [&boot] {
                 write_frame(boot.get(), net::encode_boot_ready(net::BootReady{true, ""}));
                 boot.reset();
               });
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tbon remote node %u failed: %s\n", id, error.what());
    std::fflush(stderr);
    if (boot.valid()) {
      try {
        write_frame(boot.get(),
                    net::encode_boot_ready(net::BootReady{false, error.what()}));
      } catch (...) {
      }
    }
    std::_Exit(1);
  }
  std::_Exit(0);
}

// ---- front-end side ---------------------------------------------------------

std::unique_ptr<Network> Network::create_multiprocess_impl(const NetworkOptions& options) {
  const bool remote = options.mode == NetworkMode::kRemote;
  const RemoteOptions& ropts = options.remote;
  if (!options.backend_main && !(remote && ropts.spawn)) {
    throw ProtocolError(
        remote ? "NetworkOptions::backend_main is required in remote mode unless a "
                 "custom RemoteOptions::spawn launches back-end binaries"
               : "NetworkOptions::backend_main is required in process mode");
  }
  auto network = std::unique_ptr<Network>(new Network(options.topology));
  Network& self = *network;
  self.mode_ = options.mode;
  self.recovery_ = options.recovery;
  self.fc_options_ = options.flow_control;
  self.batching_ = options.batching;
  const Topology& topo = self.topology_;
  const HeartbeatConfig hb = options.recovery.heartbeat();

  self.root_delegate_ = std::make_unique<RootDelegate>(self);
  self.runtimes_.resize(topo.num_nodes());
  self.runtimes_[topo.root()] = std::make_unique<NodeRuntime>(
      topo, topo.root(), self.registry_, self.root_delegate_.get());
  NodeRuntime& root = *self.runtimes_[topo.root()];
  if (!options.recovery.fault_plan.empty()) {
    self.injector_ = std::make_shared<FaultInjector>(options.recovery.fault_plan);
    root.set_fault_injector(self.injector_);
  }
  if (hb.enabled()) root.set_recovery(hb);
  if (self.fc_options_.enabled) root.set_flow_control(self.fc_options_);
  root.set_execution(options.execution);

  // Listeners bind before any fork so children know the ports and can close
  // their inherited copies; the event loop (epoll fd, eventfd, thread) is
  // created only after every fork.
  const std::string bind_host = remote ? ropts.bind_host : "127.0.0.1";
  std::unique_ptr<TcpListener> boot_listener;
  std::unique_ptr<TcpListener> link_listener;
  if (remote) {
    boot_listener = std::make_unique<TcpListener>(TcpEndpoint{bind_host, 0});
    link_listener = std::make_unique<TcpListener>(TcpEndpoint{bind_host, 0});
  }
  if (self.recovery_.auto_readopt) {
    self.rendezvous_ = std::make_unique<RendezvousServer>(TcpEndpoint{bind_host, 0});
  }

  net::NodeConfig base;
  base.topology = topo;
  base.flow_control = options.flow_control;
  base.execution = options.execution;
  base.batching = options.batching;
  base.heartbeat = hb;
  base.fault_plan = options.recovery.fault_plan;
  base.zero_copy = net::zero_copy();
  base.handshake_timeout_ms = ropts.handshake_timeout_ms;
  if (self.rendezvous_) {
    base.rendezvous = bind_host + ":" + std::to_string(self.rendezvous_->port());
  }

  std::vector<pid_t> pids;
  std::vector<Fd> root_fds;
  if (remote) {
    const std::string bootstrap =
        bind_host + ":" + std::to_string(boot_listener->port());
    for (NodeId id = 0; id < static_cast<NodeId>(topo.num_nodes()); ++id) {
      if (id == topo.root()) continue;
      if (ropts.spawn) {
        ropts.spawn(RemoteSpawnRequest{id, topo.node(id).host, bootstrap});
        continue;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid < 0) throw TransportError("fork failed");
      if (pid == 0) {
        boot_listener->close();
        link_listener->close();
        if (self.rendezvous_) ::close(self.rendezvous_->listener_fd());
        run_remote_node(id, bootstrap, options.backend_main, ropts.framing);
        // unreachable
      }
      pids.push_back(pid);
    }
    for (const pid_t pid : take_spawned_pids()) pids.push_back(pid);
  } else {
    std::vector<int> close_in_child;
    if (self.rendezvous_) close_in_child.push_back(self.rendezvous_->listener_fd());
    ForkedChildren forked =
        fork_children(base, topo.root(), close_in_child, options.backend_main);
    root_fds = std::move(forked.fds);
    pids = std::move(forked.pids);
  }

  auto state = std::make_shared<FrontEndState>(root);
  FrontEndState* st = state.get();
  st->fc = options.flow_control;
  st->batching = options.batching;
  st->flusher = std::make_shared<BatchFlusher>();
  self.batch_flusher_ = st->flusher;
  if (remote) st->framing = ropts.framing;
  st->root_children.resize(topo.node(topo.root()).children.size());
  st->pids = std::move(pids);
  self.fe_state_ = state;

  if (remote) {
    st->boot_listener = std::move(boot_listener);
    st->link_listener = std::move(link_listener);
    st->bind_host = bind_host;
    st->handshake_timeout_ms = ropts.handshake_timeout_ms;
    st->topology = topo;
    st->base_config = std::move(base);
    // The TcpListener keeps the canonical fd (port() needs it); the loop
    // gets a dup.  Making the shared file description non-blocking is fine
    // — these listeners are only ever accepted by the loop.
    const std::int64_t boot_deadline =
        now_ns() + std::int64_t{ropts.ready_timeout_ms} * 1'000'000;
    st->loop.add_listener(Fd(::dup(st->boot_listener->fd())), [st, boot_deadline](Fd client) {
      auto whoami = std::make_shared<std::optional<NodeId>>();
      net::ConnectionOptions conn;
      conn.deadline_ns = boot_deadline;
      conn.on_frame = [st, whoami](const net::ConnRef& ref, Bytes frame) {
        fe_boot_frame(st, whoami, ref, frame);
      };
      conn.on_close = [st, whoami](const net::ConnRef&) {
        // Hostile dialers (no hello) die silently; a real node dying before
        // its BootReady fails the bring-up fast instead of waiting it out.
        if (!whoami->has_value()) return;
        const auto it = st->boots.find(**whoami);
        if (it != st->boots.end() && it->second.ready) return;
        fe_fail(st, "node " + std::to_string(**whoami) +
                        " bootstrap connection closed before ready");
      };
      st->loop.add_connection(std::move(client), std::move(conn));
    });
    st->loop.add_listener(Fd(::dup(st->link_listener->fd())), [st](Fd client) {
      net::ConnectionOptions conn;
      conn.deadline_ns =
          now_ns() + std::int64_t{st->handshake_timeout_ms} * 1'000'000;
      conn.on_frame = [st](const net::ConnRef& ref, Bytes frame) {
        fe_link_hello(st, ref, frame);
      };
      st->loop.add_connection(std::move(client), std::move(conn));
    });
    st->loop.start();

    const std::size_t want_ready = topo.num_nodes() - 1;
    const std::size_t want_links = st->root_children.size();
    std::unique_lock<std::mutex> lock(st->mutex);
    const bool done = st->cv.wait_for(
        lock, std::chrono::milliseconds(ropts.ready_timeout_ms),
        [st, want_ready, want_links] {
          return st->failed ||
                 (st->ready >= want_ready && st->link_count >= want_links);
        });
    if (!done || st->failed) {
      const std::string why =
          st->failed ? st->failure : "timed out waiting for remote nodes";
      lock.unlock();
      fe_teardown(st, /*force=*/true);
      {
        // Mark the network already shut down so ~Network does not wait for
        // acknowledgements from a tree that never existed.
        std::lock_guard<std::mutex> slock(self.shutdown_mutex_);
        self.shutdown_requested_ = true;
        self.shutdown_complete_ = true;
      }
      throw TransportError("create_remote failed: " + why);
    }
  } else {
    const EdgeFactory edges = st->edges();
    for (std::uint32_t slot = 0; slot < root_fds.size(); ++slot) {
      std::shared_ptr<CreditGate> gate_down;
      st->root_children[slot] =
          edges.open(std::move(root_fds[slot]), Origin::kChild, slot, gate_down,
                     /*coalesce=*/true, /*fail_fast_throws=*/false);
    }
    st->loop.start();
  }

  // Every edge exists; wire the root's children in slot order (the inbox
  // buffered anything the channels delivered meanwhile).
  for (std::uint32_t slot = 0; slot < st->root_children.size(); ++slot) {
    attach_child(root, slot, st->root_children[slot]);
  }

  self.front_end_ = std::unique_ptr<FrontEnd>(new FrontEnd(self));
  self.next_dynamic_rank_ = static_cast<std::uint32_t>(topo.num_leaves());
  if (self.rendezvous_) {
    self.rendezvous_->start([&self](Fd connection, const OrphanHello& hello) {
      self.adopt_orphan(std::move(connection), hello);
    });
  }
  self.threads_.emplace_back([&root] { root.run(); });
  self.fe_stop_ = [state] { fe_teardown(state.get(), /*force=*/false); };
  self.start_telemetry(options.telemetry);
  return network;
}

void Network::adopt_orphan(Fd connection, const OrphanHello& hello) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    // Dropping the connection EOFs the orphan, which then gives up and
    // dies; its subtree drains through the normal teardown path.
    if (shutdown_requested_) return;
  }
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  auto state = std::static_pointer_cast<FrontEndState>(fe_state_);
  if (!state) return;
  NodeRuntime& root = *runtimes_[topology_.root()];
  const std::uint32_t slot = root.reserve_child_slot();
  TBON_INFO("front-end adopting orphan node " << hello.node << " at slot " << slot);
  if (hello.node < current_parent_.size()) {
    current_parent_[hello.node] = topology_.root();
  }
  // Register paused: the wiring marker (request_adopt) must reach the root
  // inbox before the orphan's first data frame possibly can.
  std::shared_ptr<CreditGate> gate_down;
  net::ConnRef conn;
  const Edge edge =
      state->edges().open(std::move(connection), Origin::kChild, slot, gate_down,
                          /*coalesce=*/false, /*fail_fast_throws=*/false, &conn);
  if (edge.fc_link) {
    root.register_fc_link(edge.fc_link);
    root.set_child_granter(slot, fc_frame_granter(edge.raw));
  }
  root.request_adopt(slot, hello.ranks, std::make_unique<SharedLink>(edge.channel));
  state->loop.resume(conn);
  root.metrics().net_reconnects.fetch_add(1, std::memory_order_relaxed);
  ++adoptions_;
  adoption_cv_.notify_all();
}

// ---- launchers --------------------------------------------------------------

namespace net {

std::function<void(const RemoteSpawnRequest&)> exec_spawn(
    std::vector<std::string> command) {
  return [command = std::move(command)](const RemoteSpawnRequest& request) {
    std::vector<std::string> argv = command;
    argv.push_back("--tbon-node=" + std::to_string(request.node));
    argv.push_back("--tbon-bootstrap=" + request.bootstrap);
    spawn_command(argv);
  };
}

std::function<void(const RemoteSpawnRequest&)> ssh_spawn(
    std::vector<std::string> command, std::string ssh_binary) {
  return [command = std::move(command), ssh_binary = std::move(ssh_binary)](
             const RemoteSpawnRequest& request) {
    std::vector<std::string> argv;
    argv.reserve(command.size() + 4);
    argv.push_back(ssh_binary);
    argv.push_back(host_of(request.host));
    for (const std::string& part : command) argv.push_back(part);
    argv.push_back("--tbon-node=" + std::to_string(request.node));
    argv.push_back("--tbon-bootstrap=" + request.bootstrap);
    spawn_command(argv);
  };
}

bool maybe_run_remote_node(int argc, const char* const* argv,
                           const RemoteNodeOptions& options) {
  std::optional<NodeId> node;
  std::string bootstrap;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kNode = "--tbon-node=";
    constexpr std::string_view kBootstrap = "--tbon-bootstrap=";
    if (arg.substr(0, kNode.size()) == kNode) {
      node = static_cast<NodeId>(
          std::stoul(std::string(arg.substr(kNode.size()))));
    } else if (arg.substr(0, kBootstrap.size()) == kBootstrap) {
      bootstrap = std::string(arg.substr(kBootstrap.size()));
    }
  }
  if (!node || bootstrap.empty()) return false;
  Network::run_remote_node(*node, bootstrap, options.backend_main,
                           options.framing);
  return true;  // unreachable: run_remote_node _Exits, but keeps -Wreturn-type honest
}

}  // namespace net
}  // namespace tbon
