#include "net/event_loop.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/coalesce.hpp"
#include "core/flow_control.hpp"
#include "core/protocol.hpp"

namespace tbon::net {
namespace {

/// Per-connection cap on bytes a sender may queue behind the socket before
/// NetLink::send blocks — the userspace analogue of a full SO_SNDBUF.
constexpr std::size_t kSendBudget = std::size_t{4} << 20;

/// Packet-plane frame ceiling (matches the fd.hpp codec's kMaxFrame).
constexpr std::size_t kMaxWireFrame = std::size_t{1} << 30;

/// How often the loop refreshes the net_threads gauge from /proc.
constexpr std::int64_t kThreadSampleNs = 250'000'000;

/// iovec entries per sendmsg call (comfortably under IOV_MAX).
constexpr std::size_t kIovBatch = 64;

/// Bytes of idle receive buffers one loop keeps for reuse, and the
/// smallest frame worth recycling (below it malloc serves from warm bins).
constexpr std::size_t kFramePoolBytes = std::size_t{1} << 20;
constexpr std::size_t kPooledFrameMin = std::size_t{16} << 10;

/// How long a sender finishing its own frame waits for POLLOUT before
/// re-checking that the connection is still open.
constexpr int kSenderPollMs = 50;

std::string errno_string(int err) { return std::strerror(err); }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError("fcntl(O_NONBLOCK) failed: " + errno_string(errno));
  }
}

/// OS threads in this process, from /proc/self/task (Linux); 0 on failure.
std::uint64_t count_process_threads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::uint64_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

thread_local int t_loop_marker = 0;

std::atomic<bool> g_zero_copy{true};

/// Put the length prefix in front of a built frame; throws on frames the
/// peer's reader would reject.
std::unique_ptr<NetConn::Outgoing> seal(std::unique_ptr<NetConn::Outgoing> out) {
  if (out->frame_size > kMaxWireFrame) {
    throw TransportError("oversized outgoing frame (" +
                         std::to_string(out->frame_size) + " bytes)");
  }
  std::memcpy(out->header.data(), &out->frame_size, sizeof(out->frame_size));
  out->segments.insert(out->segments.begin(),
                       {out->header.data(), out->header.size()});
  return out;
}

/// One flat frame (handshake payloads, batch frames, framed or copying
/// packet sends).
std::unique_ptr<NetConn::Outgoing> flat_frame(Bytes bytes) {
  auto out = std::make_unique<NetConn::Outgoing>();
  out->flat = std::move(bytes);
  out->frame_size = static_cast<std::uint32_t>(out->flat.size());
  out->segments.push_back({out->flat.data(), out->flat.size()});
  return seal(std::move(out));
}

/// Frame a packet-plane send.  `framing` is null or transparent on the
/// sender-thread path; a real transform runs on the loop thread only.
std::unique_ptr<NetConn::Outgoing> build_frame(const NetConn::SendItem& item,
                                               Framing* framing) {
  const bool transparent = framing == nullptr || framing->transparent();
  if (!item.batch.empty()) {
    // A coalesced run: one multi-packet batch frame.  Always flattened —
    // the batch encoding interleaves per-packet headers, so there is no
    // verbatim-relay segment list to preserve.
    Bytes frame = encode_batch_frame(item.batch);
    return flat_frame(transparent ? std::move(frame) : framing->encode(frame));
  }
  if (transparent && zero_copy()) {
    // Wire-backed relays go out verbatim, owned packets as header scratch +
    // in-place payload segments.  The Outgoing holds the packet and the
    // writer so the segment pointers stay valid across however many writes
    // the frame takes.
    auto out = std::make_unique<NetConn::Outgoing>();
    out->packet = item.packet;
    item.packet->serialize_segments(out->writer);
    out->segments = out->writer.segments();
    out->frame_size = static_cast<std::uint32_t>(out->writer.size());
    return seal(std::move(out));
  }
  BinaryWriter writer;
  item.packet->serialize(writer);
  return flat_frame(transparent ? writer.take() : framing->encode(writer.bytes()));
}

enum class WriteResult { kDone, kBlocked, kFailed };

/// Write as much of `out` as the socket takes, advancing its cursor.
/// MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, never as SIGPIPE.
WriteResult write_some(int fd, NetConn::Outgoing& out) {
  while (out.segment_index < out.segments.size()) {
    iovec iov[kIovBatch];
    std::size_t iovcnt = 0;
    for (std::size_t i = out.segment_index;
         i < out.segments.size() && iovcnt < kIovBatch; ++i) {
      const auto& seg = out.segments[i];
      const std::size_t skip = (i == out.segment_index) ? out.segment_offset : 0;
      iov[iovcnt].iov_base = const_cast<std::byte*>(seg.data) + skip;
      iov[iovcnt].iov_len = seg.size - skip;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteResult::kBlocked;
      TBON_DEBUG("net write failed: " << errno_string(errno));
      return WriteResult::kFailed;
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0) {
      const std::size_t remain =
          out.segments[out.segment_index].size - out.segment_offset;
      if (advanced >= remain) {
        advanced -= remain;
        ++out.segment_index;
        out.segment_offset = 0;
      } else {
        out.segment_offset += advanced;
        advanced = 0;
      }
    }
  }
  return WriteResult::kDone;
}

}  // namespace

/// Receive buffers recycled across frames.  A zero-copy frame's Buffer
/// hands its storage back here when the last packet view into it dies, so
/// steady-state bulk relay reads into warm pages: freeing every frame to
/// malloc lets it trim the heap top and the next frame faults its pages
/// back in, which made page faults the read path's main kernel cost.
class FramePool : public std::enable_shared_from_this<FramePool> {
 public:
  /// A buffer of exactly `size` bytes (contents unspecified).
  Bytes take(std::size_t size) {
    Bytes bytes;
    if (size >= kPooledFrameMin) {
      std::lock_guard<std::mutex> lock(mutex_);
      // Frames of one stream tend to share a size; a buffer more than twice
      // the frame would pin memory the frame does not need.
      if (!free_.empty() && free_.back().capacity() >= size &&
          free_.back().capacity() / 2 <= size) {
        bytes = std::move(free_.back());
        free_.pop_back();
        held_ -= bytes.capacity();
      }
    }
    bytes.resize(size);
    return bytes;
  }

  /// `frame` as a Buffer whose storage returns to the pool.
  BufferPtr wrap(Bytes frame) {
    auto owned = std::make_unique<Buffer>(std::move(frame));
    return BufferPtr(owned.release(), [pool = shared_from_this()](const Buffer* buffer) {
      std::unique_ptr<Buffer> doomed(const_cast<Buffer*>(buffer));
      pool->give(std::move(doomed->storage()));
    });
  }

  /// Return a buffer nobody references any more.
  void give(Bytes bytes) {
    const std::size_t capacity = bytes.capacity();
    if (capacity < kPooledFrameMin || capacity > kFramePoolBytes) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (held_ + capacity > kFramePoolBytes) return;
    held_ += capacity;
    free_.push_back(std::move(bytes));
  }

 private:
  std::mutex mutex_;
  std::vector<Bytes> free_;
  std::size_t held_ = 0;
};

namespace {

/// Finish a frame whose write-through found the kernel buffer full,
/// waiting for POLLOUT between writes.  The bounded waits re-check `conn`,
/// so a connection the loop closes (or a stopped loop) never strands the
/// sender behind a peer that stopped reading.
WriteResult write_blocking(const NetConn& conn, NetConn::Outgoing& out) {
  for (;;) {
    pollfd pfd{conn.fd(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, kSenderPollMs);
    if (conn.closed()) return WriteResult::kFailed;
    if (ready < 0 && errno != EINTR) return WriteResult::kFailed;
    if (ready <= 0) continue;
    const WriteResult result = write_some(conn.fd(), out);
    if (result != WriteResult::kBlocked) return result;
  }
}

}  // namespace

void set_zero_copy(bool enabled) noexcept {
  g_zero_copy.store(enabled, std::memory_order_relaxed);
}

bool zero_copy() noexcept { return g_zero_copy.load(std::memory_order_relaxed); }

// ---- NetLink ----------------------------------------------------------------

bool NetLink::send(const PacketPtr& packet) {
  if (!packet || conn_ == nullptr || conn_->loop_ == nullptr) return false;
  NetConn::SendItem item;
  item.packet = packet;
  // Budget charge is an O(1) estimate (payload + a small header allowance);
  // exact frame bytes are accounted when the frame is written.
  item.charge = packet->payload_bytes() + 64;
  // Control and telemetry packets bypass the budget the same way they
  // bypass credit gates: blocking the control plane behind a data backlog
  // would deadlock shutdown and starve heartbeats.
  const bool may_block = !flow_control_exempt(*packet);
  return conn_->loop_->enqueue(conn_, std::move(item), may_block);
}

bool NetLink::send_batch(std::span<const PacketPtr> packets) {
  if (packets.empty()) return true;
  // A one-packet batch keeps the plain single-frame path (and with it the
  // zero-copy lanes), byte-identical to the pre-batching wire form.
  if (packets.size() == 1) return send(packets.front());
  if (conn_ == nullptr || conn_->loop_ == nullptr) return false;
  NetConn::SendItem item;
  item.batch.assign(packets.begin(), packets.end());
  for (const PacketPtr& packet : packets) {
    item.charge += packet->payload_bytes() + 64;
  }
  // Batches only ever carry data packets (the coalescer exempts control and
  // telemetry), so they always count against the send budget.
  return conn_->loop_->enqueue(conn_, std::move(item), /*may_block=*/true);
}

void NetLink::close() {
  // A closed connection has nothing to flush, and its loop may be gone.
  if (conn_ == nullptr || conn_->loop_ == nullptr || conn_->closed()) return;
  {
    std::lock_guard<std::mutex> lock(conn_->mutex_);
    conn_->close_after_flush_ = true;
  }
  conn_->loop_->wake();
}

// ---- EventLoop: lifecycle ---------------------------------------------------

EventLoop::EventLoop(MetricsRegistry* metrics)
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)),
      metrics_(metrics),
      frames_(std::make_shared<FramePool>()) {
  if (!epoll_.valid() || !wake_fd_.valid()) {
    throw TransportError("event loop setup failed: " + errno_string(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    throw TransportError("epoll_ctl(wake) failed: " + errno_string(errno));
  }
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  const bool first = !stopping_.exchange(true, std::memory_order_acq_rel);
  wake();
  if (thread_.joinable()) thread_.join();
  if (!first) return;
  // Loop thread is gone; tear down on the caller's thread.  Blocked senders
  // are woken and fail; EOF envelopes are best-effort (the runtimes are
  // usually being torn down alongside us).
  for (auto& [fd, conn] : conns_) {
    conn->closed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(conn->mutex_);
    conn->queue_.clear();
    conn->queued_bytes_ = 0;
    conn->budget_.notify_all();
    if (conn->channel_ && !conn->eof_notified_ && conn->inbox_) {
      if (conn->inbox_->try_push(Envelope{conn->origin_, conn->slot_, nullptr})) {
        conn->eof_notified_ = true;
      }
    }
  }
  conns_.clear();
  listeners_.clear();
  timers_.clear();
  parked_.clear();
  pending_eof_.clear();
}

bool EventLoop::drain(std::int64_t timeout_ms) {
  // Pre-start there is no loop to wait for; on the loop thread we cannot
  // wait for ourselves.
  if (!started_.load(std::memory_order_acquire) || on_loop_thread()) return true;
  const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    auto flushed = std::make_shared<std::promise<bool>>();
    std::future<bool> verdict = flushed->get_future();
    post([this, flushed] {
      bool busy = false;
      for (auto& [fd, conn] : conns_) {
        if (conn->outgoing_) {
          busy = true;
          break;
        }
        std::lock_guard<std::mutex> lock(conn->mutex_);
        if (!conn->queue_.empty() || conn->in_flight_) {
          busy = true;
          break;
        }
      }
      flushed->set_value(!busy);
    });
    // Bounded wait: if the loop stops underneath us the op never runs and
    // an unbounded get() would hang.
    if (verdict.wait_for(std::chrono::milliseconds(50)) ==
            std::future_status::ready &&
        verdict.get()) {
      return true;
    }
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool EventLoop::on_loop_thread() const noexcept {
  return loop_thread_id_.load(std::memory_order_acquire) == &t_loop_marker;
}

void EventLoop::submit(std::function<void()> fn) {
  // Before start() the caller is the only thread touching loop state;
  // afterwards all mutation funnels through the ops queue.
  if (!started_.load(std::memory_order_acquire) || on_loop_thread()) {
    fn();
    return;
  }
  post(std::move(fn));
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    ops_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::post_at(std::int64_t deadline_ns, std::function<void()> fn) {
  submit([this, deadline_ns, fn = std::move(fn)]() mutable {
    timers_.emplace(deadline_ns, std::move(fn));
  });
}

// ---- EventLoop: registration ------------------------------------------------

ConnRef EventLoop::add_connection(Fd fd, ConnectionOptions options) {
  // Non-blocking from the start: senders may write through before the loop
  // has registered the socket.
  set_nonblocking(fd.get());
  auto conn = std::make_shared<NetConn>();
  conn->fd_ = std::move(fd);
  conn->loop_ = this;
  conn->on_frame_ = std::move(options.on_frame);
  conn->on_close_ = std::move(options.on_close);
  conn->max_frame_ = options.max_frame;
  conn->deadline_ns_ = options.deadline_ns;
  submit([this, conn] { register_conn(conn); });
  return conn;
}

std::shared_ptr<Link> EventLoop::add_channel(Fd fd, ChannelOptions options,
                                             ConnRef* out_conn) {
  set_nonblocking(fd.get());
  auto conn = std::make_shared<NetConn>();
  conn->fd_ = std::move(fd);
  conn->loop_ = this;
  apply_channel_options(*conn, std::move(options));
  if (out_conn != nullptr) *out_conn = conn;
  submit([this, conn] { register_conn(conn); });
  return std::make_shared<NetLink>(conn);
}

void EventLoop::resume(const ConnRef& conn) {
  submit([this, conn] {
    if (conn->closed() || conn->read_enabled_) return;
    conn->read_enabled_ = true;
    update_interest(*conn);
    handle_readable(conn);
  });
}

void EventLoop::apply_channel_options(NetConn& conn, ChannelOptions options) {
  conn.channel_ = true;
  conn.inbox_ = std::move(options.inbox);
  conn.origin_ = options.origin;
  conn.slot_ = options.slot;
  conn.credits_ = std::move(options.credits);
  conn.framing_ = std::move(options.framing);
  conn.max_frame_ = options.max_frame;
  if (options.paused) conn.read_enabled_ = false;
  conn.on_frame_ = nullptr;
  conn.on_close_ = nullptr;
  conn.deadline_ns_ = 0;
}

void EventLoop::promote(const ConnRef& conn, ChannelOptions options) {
  apply_channel_options(*conn, std::move(options));
}

std::shared_ptr<Link> EventLoop::link(const ConnRef& conn) {
  return std::make_shared<NetLink>(conn);
}

void EventLoop::register_conn(const ConnRef& conn) {
  if (conn->closed()) return;
  if (stopping_.load(std::memory_order_acquire)) {
    // Late registration during shutdown: stop()'s wake pass only covers
    // conns_ members, so a silently dropped conn would leave any sender
    // blocked on its budget condvar hanging forever.  Tear it down properly
    // (marks it closed, clears the queue, notifies budget_, surfaces EOF).
    connection_dead(conn, false);
    return;
  }
  epoll_event ev{};
  ev.events = conn->read_enabled_ ? EPOLLIN : 0u;
  ev.data.fd = conn->fd();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd(), &ev) != 0) {
    TBON_DEBUG("epoll add failed: " << errno_string(errno));
    connection_dead(conn, !conn->channel_);
    return;
  }
  conn->registered_ = true;
  conns_.emplace(conn->fd(), conn);
  if (metrics_ != nullptr) {
    metrics_->net_connections.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->deadline_ns_ > 0) {
    timers_.emplace(conn->deadline_ns_, [this, weak = std::weak_ptr<NetConn>(conn)] {
      ConnRef locked = weak.lock();
      // Still un-promoted when the deadline fires: the peer never finished
      // (or never started) its handshake.
      if (locked && !locked->closed() && !locked->channel_) {
        TBON_DEBUG("handshake deadline expired on fd " << locked->fd());
        connection_dead(locked, true);
      }
    });
  }
}

void EventLoop::add_listener(Fd fd, std::function<void(Fd)> on_accept) {
  auto shared = std::make_shared<ListenerState>();
  shared->fd = std::move(fd);
  shared->on_accept = std::move(on_accept);
  submit([this, shared] {
    if (stopping_.load(std::memory_order_acquire)) return;
    set_nonblocking(shared->fd.get());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = shared->fd.get();
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, shared->fd.get(), &ev) != 0) {
      throw TransportError("epoll add listener failed: " + errno_string(errno));
    }
    const int key = shared->fd.get();
    listeners_.emplace(key, std::move(*shared));
  });
}

void EventLoop::close_connection(const ConnRef& conn) {
  submit([this, conn] { connection_dead(conn, false); });
}

// ---- EventLoop: send path ---------------------------------------------------

bool EventLoop::enqueue(const ConnRef& conn, NetConn::SendItem item, bool may_block) {
  if (!item.frame && (!conn->framing_ || conn->framing_->transparent())) {
    // Frame on the sender's thread; only a real Framing transform (stateful,
    // like a TLS record layer) must run on the loop thread.
    try {
      item.frame = build_frame(item, nullptr);
    } catch (const std::exception& error) {
      TBON_DEBUG("net frame build failed: " << error.what());
      close_connection(conn);
      return false;
    }
  }
  if (item.frame) item.frame->charge = item.charge;
  // Data senders off the loop thread may wait for the socket; control
  // frames and the loop itself never do.
  const bool blocking = may_block && !on_loop_thread();
  {
    std::unique_lock<std::mutex> lock(conn->mutex_);
    if (blocking && item.frame) {
      // Another sender is finishing its frame on the socket: queue up behind
      // it as behind a blocking write, then write through in turn.
      conn->budget_.wait(lock,
                         [&] { return conn->closed() || !conn->sender_writing_; });
    }
    if (conn->closed() || conn->close_after_flush_) return false;
    if (item.frame && conn->queue_.empty() && !conn->in_flight_) {
      // Write-through: nothing of ours is queued or on the wire, so the
      // sender writes the frame itself — one syscall, no loop wake-up.
      // The lock keeps the loop from starting a frame meanwhile.
      WriteResult result = write_some(conn->fd(), *item.frame);
      if (result == WriteResult::kBlocked) {
        if (metrics_ != nullptr) {
          metrics_->net_partial_writes.fetch_add(1, std::memory_order_relaxed);
        }
        if (blocking) {
          // Kernel buffer full mid-frame: finish the frame here, waiting
          // for POLLOUT with the mutex released so the loop never waits on
          // us.  in_flight_ keeps everyone else's frames behind this one.
          conn->in_flight_ = true;
          conn->sender_writing_ = true;
          lock.unlock();
          result = write_blocking(*conn, *item.frame);
          lock.lock();
          conn->in_flight_ = false;
          conn->sender_writing_ = false;
          const bool loop_work = !conn->queue_.empty() || conn->close_after_flush_;
          conn->budget_.notify_all();
          if (std::exchange(conn->close_deferred_, false)) conn->fd_.reset();
          const bool closed = conn->closed();
          lock.unlock();
          if (result == WriteResult::kDone) {
            count_frame_out(item.frame->frame_size);
            // Frames queued behind ours (control, loop-thread sends) or a
            // pending close are the loop's to finish.
            if (loop_work) wake();
            return true;
          }
          if (!closed) close_connection(conn);
          return false;
        }
      }
      if (result == WriteResult::kDone) {
        lock.unlock();
        count_frame_out(item.frame->frame_size);
        return true;
      }
      // Kernel buffer full mid-frame (or the peer is gone): the loop
      // finishes the frame from its cursor under EPOLLOUT (or buries the
      // connection on its own write attempt).
    } else if (may_block && conn->queued_bytes_ > 0 &&
               conn->queued_bytes_ + item.charge > kSendBudget) {
      // An empty queue always admits one item: a single frame can legally be
      // larger than the whole budget (kMaxWireFrame >> kSendBudget), and
      // waiting for `queued + charge <= budget` on such a frame would never
      // be satisfied.
      conn->budget_.wait(lock, [&] {
        return conn->closed() || conn->queued_bytes_ == 0 ||
               conn->queued_bytes_ + item.charge <= kSendBudget;
      });
      if (conn->closed()) return false;
    }
    conn->queued_bytes_ += item.charge;
    if (metrics_ != nullptr) {
      update_max(metrics_->net_send_queue_peak, conn->queued_bytes_);
    }
    const bool was_empty = conn->queue_.empty();
    conn->queue_.push_back(std::move(item));
    // A non-empty queue means a previous wake is still pending or the loop
    // is actively draining this connection and re-checks the queue before
    // sleeping — either way another eventfd write would only add a syscall
    // per packet to the hot path.
    if (!was_empty) return true;
  }
  wake();
  return true;
}

void EventLoop::send_frame(const ConnRef& conn, Bytes frame) {
  // Handshake payloads are length-framed but never pass through the
  // Framing (handshakes travel in the clear).
  NetConn::SendItem item;
  item.charge = frame.size() + 4;
  item.frame = flat_frame(std::move(frame));
  enqueue(conn, std::move(item), /*may_block=*/false);
}

bool EventLoop::build_outgoing(const ConnRef& conn) {
  NetConn::SendItem item;
  {
    std::lock_guard<std::mutex> lock(conn->mutex_);
    if (conn->queue_.empty() || conn->sender_writing_) return false;
    item = std::move(conn->queue_.front());
    conn->queue_.pop_front();
    conn->in_flight_ = true;
  }
  if (!item.frame) {
    try {
      item.frame = build_frame(item, conn->framing_.get());
      item.frame->charge = item.charge;
    } catch (const std::exception& error) {
      TBON_DEBUG("net frame build failed: " << error.what());
      connection_dead(conn, !conn->channel_);
      return false;
    }
  }
  conn->outgoing_ = std::move(item.frame);
  return true;
}

void EventLoop::count_frame_out(std::uint32_t frame_size) {
  if (metrics_ != nullptr) {
    metrics_->wire_bytes_out.fetch_add(frame_size, std::memory_order_relaxed);
    metrics_->net_frames_out.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::finish_outgoing(NetConn& conn) {
  count_frame_out(conn.outgoing_->frame_size);
  const std::size_t charge = conn.outgoing_->charge;
  conn.outgoing_.reset();
  std::lock_guard<std::mutex> lock(conn.mutex_);
  conn.in_flight_ = false;
  conn.queued_bytes_ -= std::min(conn.queued_bytes_, charge);
  conn.budget_.notify_all();
}

void EventLoop::handle_writable(const ConnRef& conn) {
  if (conn->closed()) return;
  while (true) {
    if (!conn->outgoing_ && !build_outgoing(conn)) break;
    if (conn->closed()) return;  // build_outgoing may have killed the conn
    const WriteResult result = write_some(conn->fd(), *conn->outgoing_);
    if (result == WriteResult::kBlocked) {
      // Kernel buffer full mid-frame: keep the cursor, ask for EPOLLOUT.
      if (metrics_ != nullptr) {
        metrics_->net_partial_writes.fetch_add(1, std::memory_order_relaxed);
      }
      if (!conn->want_write_) {
        conn->want_write_ = true;
        update_interest(*conn);
      }
      return;
    }
    if (result == WriteResult::kFailed) {
      connection_dead(conn, !conn->channel_);
      return;
    }
    finish_outgoing(*conn);
  }
  // Queue fully drained.
  if (conn->want_write_) {
    conn->want_write_ = false;
    update_interest(*conn);
  }
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex_);
    close_now = conn->close_after_flush_ && conn->queue_.empty() &&
                !conn->sender_writing_;
  }
  if (close_now && !conn->outgoing_) {
    // Half-close: the peer's reader sees EOF, and our read side stays open
    // until it does the same.
    shutdown_write(conn->fd());
  }
}

// ---- EventLoop: receive path ------------------------------------------------

void EventLoop::handle_readable(const ConnRef& conn) {
  while (!conn->closed() && conn->read_enabled_) {
    if (!conn->reading_payload_) {
      // The header may already be complete from a previous readv's spillover
      // (see the payload branch); only hit the kernel when it is not.
      if (conn->header_have_ < conn->header_.size()) {
        const ssize_t n = ::read(conn->fd(), conn->header_.data() + conn->header_have_,
                                 conn->header_.size() - conn->header_have_);
        if (n == 0) {
          connection_dead(conn, !conn->channel_);
          return;
        }
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          connection_dead(conn, !conn->channel_);
          return;
        }
        conn->header_have_ += static_cast<std::size_t>(n);
        if (conn->header_have_ < conn->header_.size()) continue;
      }
      std::uint32_t size = 0;
      std::memcpy(&size, conn->header_.data(), sizeof(size));
      if (size == 0 || size > conn->max_frame_) {
        // A hostile or garbage length prefix: drop the connection instead
        // of allocating whatever it claims.
        TBON_DEBUG("bad frame size " << size << " on fd " << conn->fd());
        connection_dead(conn, !conn->channel_);
        return;
      }
      conn->payload_ = frames_->take(size);
      conn->payload_have_ = 0;
      conn->reading_payload_ = true;
    } else {
      // Pull the next frame's length prefix in the same syscall as the
      // payload tail: in steady-state bulk relay this halves the reads per
      // frame (the separate 4-byte header read disappears).
      iovec iov[2];
      iov[0].iov_base = conn->payload_.data() + conn->payload_have_;
      iov[0].iov_len = conn->payload_.size() - conn->payload_have_;
      iov[1].iov_base = conn->header_.data();
      iov[1].iov_len = conn->header_.size();
      const ssize_t n = ::readv(conn->fd(), iov, 2);
      if (n == 0) {
        connection_dead(conn, !conn->channel_);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        connection_dead(conn, !conn->channel_);
        return;
      }
      const std::size_t got = static_cast<std::size_t>(n);
      const std::size_t payload_part = std::min(got, iov[0].iov_len);
      conn->payload_have_ += payload_part;
      if (conn->payload_have_ < conn->payload_.size()) continue;
      Bytes frame = std::move(conn->payload_);
      conn->payload_ = Bytes{};
      conn->reading_payload_ = false;
      conn->header_have_ = got - payload_part;  // next frame's prefix spillover
      if (!deliver_frame(conn, std::move(frame))) return;
    }
  }
}

bool EventLoop::deliver_frame(const ConnRef& conn, Bytes frame) {
  if (metrics_ != nullptr) {
    metrics_->wire_bytes_in.fetch_add(frame.size(), std::memory_order_relaxed);
    metrics_->net_frames_in.fetch_add(1, std::memory_order_relaxed);
  }
  if (!conn->channel_) {
    if (conn->on_frame_) {
      // Keep the callback alive across the call: it may promote the
      // connection, which replaces conn->on_frame_ under our feet.
      const auto callback = conn->on_frame_;
      try {
        callback(conn, std::move(frame));
      } catch (const std::exception& error) {
        // A malformed handshake frame (CodecError from the wire decoders,
        // or a validation failure in the callback) costs exactly one
        // connection, never the loop.
        TBON_DEBUG("handshake frame rejected: " << error.what());
        connection_dead(conn, true);
        return false;
      }
    }
    return !conn->closed();
  }
  try {
    if (conn->framing_ && !conn->framing_->transparent()) {
      conn->framing_->decode(frame);
    }
    if (is_batch_frame(frame)) {
      std::vector<PacketPtr> packets;
      try {
        packets = decode_batch_frame(std::move(frame), zero_copy());
      } catch (const CodecError& error) {
        // Frame boundaries are intact (length-prefixed stream), so a
        // malformed batch is dropped whole — no envelopes, no credits — and
        // the connection lives on.
        TBON_DEBUG("dropping malformed batch frame: " << error.what());
        if (metrics_ != nullptr) {
          metrics_->batch_frames_rejected.fetch_add(1, std::memory_order_relaxed);
        }
        return !conn->closed();
      }
      if (metrics_ != nullptr) {
        metrics_->batch_frames_in.fetch_add(1, std::memory_order_relaxed);
        metrics_->batch_packets_in.fetch_add(packets.size(),
                                             std::memory_order_relaxed);
      }
      return deliver_envelope(
          conn, Envelope{conn->origin_, conn->slot_, nullptr,
                         std::make_shared<const std::vector<PacketPtr>>(
                             std::move(packets))});
    }
    PacketPtr packet;
    if (zero_copy()) {
      const BufferPtr buffer = frames_->wrap(std::move(frame));
      packet = Packet::deserialize_view(BufferView(buffer, 0, buffer->size()));
    } else {
      BinaryReader reader(frame);
      packet = Packet::deserialize(reader);
      frames_->give(std::move(frame));  // the packet owns copies
    }
    if (packet->stream_id() == kControlStream && packet->tag() == kTagCredit) {
      consume_credit(*conn, *packet);
      return true;
    }
    return deliver_envelope(conn, Envelope{conn->origin_, conn->slot_, packet});
  } catch (const std::exception& error) {
    TBON_DEBUG("net frame decode failed: " << error.what());
    connection_dead(conn, false);
    return false;
  }
}

void EventLoop::consume_credit(NetConn& conn, const Packet& packet) {
  // Applying grants here is safe because the loop never *waits* for credits: blocking acquisition
  // happens in FlowControlledLink on sender threads, which grant() wakes.
  try {
    const std::uint32_t count = credit_packet_count(packet);
    const std::uint32_t channel = credit_packet_channel(packet);
    if (!conn.credits_.gate || channel != conn.credits_.channel_id) {
      throw CodecError("stale or unsinkable credit grant");
    }
    conn.credits_.gate->grant(count);
  } catch (const std::exception& error) {
    // Malformed, stale or unsinkable: count and drop.  A hostile grant frame
    // never tears down the connection.
    TBON_DEBUG("rejecting credit grant: " << error.what());
    if (metrics_ != nullptr) {
      metrics_->fc_invalid_grants.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool EventLoop::deliver_envelope(const ConnRef& conn, Envelope envelope) {
  if (conn->inbox_->try_push(envelope)) return true;
  // Inbox full: park the envelope and mask EPOLLIN so the kernel buffer
  // (and then the peer's credit window) absorbs the backlog.  retry_parked
  // re-enables reads once the runtime drains.
  conn->parked_ = std::move(envelope);
  conn->read_enabled_ = false;
  update_interest(*conn);
  parked_.push_back(conn);
  return false;
}

void EventLoop::retry_parked() {
  if (!parked_.empty()) {
    std::vector<ConnRef> still;
    std::vector<ConnRef> ready;
    for (ConnRef& conn : parked_) {
      if (conn->closed() || !conn->parked_) continue;
      if (conn->inbox_->try_push(*conn->parked_)) {
        conn->parked_.reset();
        conn->read_enabled_ = true;
        update_interest(*conn);
        ready.push_back(std::move(conn));
      } else {
        still.push_back(std::move(conn));
      }
    }
    parked_ = std::move(still);
    // Drain whatever accumulated in the kernel while reads were masked.
    for (const ConnRef& conn : ready) handle_readable(conn);
  }
  if (!pending_eof_.empty()) {
    std::vector<PendingEof> still;
    for (PendingEof& eof : pending_eof_) {
      if (!eof.inbox->try_push(Envelope{eof.origin, eof.slot, nullptr})) {
        still.push_back(std::move(eof));
      }
    }
    pending_eof_ = std::move(still);
  }
}

// ---- EventLoop: teardown of one connection ----------------------------------

void EventLoop::connection_dead(const ConnRef& conn, bool handshake_failure) {
  if (conn->closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Deregister first: once a sender owns the fd's close (below) it may
  // close it, and the number may be reused, at any time.
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd(), nullptr);
  conn->registered_ = false;
  conns_.erase(conn->fd());
  bool sender_closes = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex_);
    conn->queue_.clear();
    conn->queued_bytes_ = 0;
    conn->budget_.notify_all();
    // A sender still waiting to finish its frame uses the fd until it sees
    // closed(); it closes the fd itself when it is done.
    sender_closes = conn->sender_writing_;
    conn->close_deferred_ = sender_closes;
    if (!sender_closes) conn->in_flight_ = false;
  }
  if (metrics_ != nullptr) {
    if (handshake_failure) {
      metrics_->net_handshakes_failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (conn->channel_) {
    if (!conn->eof_notified_) {
      conn->eof_notified_ = true;
      // The EOF envelope is what triggers recovery; it must not be lost,
      // and it must not block the loop — best effort now, retried from the
      // loop until the inbox has room.
      if (!conn->inbox_->try_push(Envelope{conn->origin_, conn->slot_, nullptr})) {
        pending_eof_.push_back(PendingEof{conn->inbox_, conn->origin_, conn->slot_});
      }
    }
  } else if (conn->on_close_) {
    const auto callback = std::move(conn->on_close_);
    conn->on_close_ = nullptr;
    try {
      callback(conn);
    } catch (const std::exception& error) {
      TBON_DEBUG("net on_close failed: " << error.what());
    }
  }
  conn->parked_.reset();
  conn->outgoing_.reset();
  if (!sender_closes) conn->fd_.reset();
}

void EventLoop::update_interest(NetConn& conn) {
  epoll_event ev{};
  ev.events = (conn.read_enabled_ ? EPOLLIN : 0u) |
              (conn.want_write_ ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd();
  if (!conn.registered_) {
    // Deregistered by the masked-HUP path in run(); re-arm so the pending
    // data / EOF the peer left behind gets read.
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn.fd(), &ev) == 0) {
      conn.registered_ = true;
    }
    return;
  }
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd(), &ev);
}

// ---- EventLoop: the loop ----------------------------------------------------

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
  if (metrics_ != nullptr) {
    metrics_->net_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::drain_wake() {
  std::uint64_t value = 0;
  while (::read(wake_fd_.get(), &value, sizeof(value)) > 0) {
  }
}

void EventLoop::run_ops() {
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    batch.swap(ops_);
  }
  for (auto& op : batch) {
    try {
      op();
    } catch (const std::exception& error) {
      TBON_DEBUG("event loop op failed: " << error.what());
    }
  }
}

void EventLoop::fire_timers(std::int64_t now) {
  while (!timers_.empty() && timers_.begin()->first <= now) {
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    try {
      fn();
    } catch (const std::exception& error) {
      TBON_DEBUG("event loop timer failed: " << error.what());
    }
  }
}

int EventLoop::poll_timeout_ms() const {
  // Parked envelopes / pending EOFs poll the inbox on a short leash; the
  // inbox has no cross-thread wake channel back to us.
  if (!parked_.empty() || !pending_eof_.empty()) return 2;
  if (timers_.empty()) return 500;
  const std::int64_t delta = timers_.begin()->first - now_ns();
  if (delta <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>(delta / 1'000'000 + 1, 500));
}

void EventLoop::sample_threads() {
  if (metrics_ != nullptr) {
    const std::uint64_t count = count_process_threads();
    if (count > 0) {
      metrics_->net_threads.store(count, std::memory_order_relaxed);
    }
  }
  timers_.emplace(now_ns() + kThreadSampleNs, [this] { sample_threads(); });
}

void EventLoop::flush_sends() {
  if (conns_.empty()) return;
  std::vector<ConnRef> flushable;
  flushable.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    bool has_work = conn->outgoing_ != nullptr;
    if (!has_work) {
      std::lock_guard<std::mutex> lock(conn->mutex_);
      has_work = !conn->queue_.empty() || conn->close_after_flush_;
    }
    if (has_work && !conn->want_write_) flushable.push_back(conn);
  }
  for (const ConnRef& conn : flushable) handle_writable(conn);
}

void EventLoop::run() {
  loop_thread_id_.store(&t_loop_marker, std::memory_order_release);
  sample_threads();
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    run_ops();
    retry_parked();
    fire_timers(now_ns());
    flush_sends();
    const int n =
        ::epoll_wait(epoll_.get(), events.data(), static_cast<int>(events.size()),
                     poll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      TBON_DEBUG("epoll_wait failed: " << errno_string(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        drain_wake();
        continue;
      }
      if (auto listener = listeners_.find(fd); listener != listeners_.end()) {
        while (true) {
          const int client = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
          if (client < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN, or a transient per-connection error
          }
          // Handshake replies and credit grants must not wait out Nagle.
          const int nodelay = 1;
          ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof(nodelay));
          if (metrics_ != nullptr) {
            metrics_->net_accepts.fetch_add(1, std::memory_order_relaxed);
          }
          try {
            listener->second.on_accept(Fd(client));
          } catch (const std::exception& error) {
            TBON_DEBUG("net accept handler failed: " << error.what());
          }
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const ConnRef conn = it->second;
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(conn);
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      if (!conn->closed() && !conn->read_enabled_ && !conn->want_write_ &&
          (events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        // HUP/ERR are delivered even with a 0 interest mask, and
        // handle_readable no-ops while reads are masked — level-triggered,
        // the event would repeat every epoll_wait and spin the loop hot
        // until the inbox drains.  Drop the fd from the interest set
        // instead; resume()/retry_parked() re-add it via update_interest
        // and then drain whatever the peer left behind before the EOF
        // surfaces.  (With want_write_ set the interest mask is non-zero
        // and the write path consumes the event: the next sendmsg fails and
        // tears the connection down.)
        if (::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd(), nullptr) ==
            0) {
          conn->registered_ = false;
        }
        continue;
      }
      handle_readable(conn);
    }
  }
  loop_thread_id_.store(nullptr, std::memory_order_release);
}

}  // namespace tbon::net
