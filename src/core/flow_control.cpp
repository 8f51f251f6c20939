#include "core/flow_control.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {

// ---- CreditGate -------------------------------------------------------------

bool CreditGate::admissible_locked(const Request& request) const {
  if (available_ == 0) return false;
  if (request.priority == Priority::kBulk &&
      prio_inflight_[static_cast<std::size_t>(Priority::kBulk)] >= bulk_cap_) {
    return false;
  }
  if (request.tenant != TenantTable::kNoTenant) {
    const auto it = tenant_inflight_.find(request.tenant);
    if (it != tenant_inflight_.end() && it->second.credits > 0) {
      if (request.max_credits && it->second.credits >= request.max_credits) {
        return false;
      }
      // The byte cap never blocks a tenant with nothing in flight, so one
      // oversized packet cannot wedge its tenant forever.
      if (request.max_bytes &&
          it->second.bytes + request.bytes > request.max_bytes) {
        return false;
      }
    }
  }
  return true;
}

CreditGate::Acquire CreditGate::acquire_locked(const Request& request) {
  if (closed_) return Acquire::kClosed;
  if (!admissible_locked(request)) {
    return available_ == 0 ? Acquire::kExhausted : Acquire::kThrottled;
  }
  --available_;
  peak_ = std::max(peak_, window_ - available_);
  holds_.push_back(Hold{request.tenant,
                        static_cast<std::uint8_t>(request.priority),
                        request.bytes});
  ++prio_inflight_[static_cast<std::size_t>(request.priority)];
  if (request.tenant != TenantTable::kNoTenant) {
    Inflight& inflight = tenant_inflight_[request.tenant];
    ++inflight.credits;
    inflight.bytes += request.bytes;
  }
  return Acquire::kOk;
}

CreditGate::Acquire CreditGate::try_acquire(const Request& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  return acquire_locked(request);
}

CreditGate::Acquire CreditGate::acquire_for(std::int64_t timeout_ns,
                                            const Request& request) {
  std::unique_lock<std::mutex> lock(mutex_);
  credits_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                    [&] { return admissible_locked(request) || closed_; });
  return acquire_locked(request);
}

void CreditGate::grant(std::uint32_t n) {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    // Grants arrive in consumption order, which matches send order, so the
    // oldest holds are the ones being returned.  Guard against n exceeding
    // the holds (stale grants racing a reset are clamped like before).
    std::uint32_t release = n;
    while (release-- && !holds_.empty()) {
      const Hold& hold = holds_.front();
      --prio_inflight_[hold.priority];
      if (hold.tenant != TenantTable::kNoTenant) {
        const auto it = tenant_inflight_.find(hold.tenant);
        if (it != tenant_inflight_.end()) {
          if (it->second.credits) --it->second.credits;
          it->second.bytes -= std::min(it->second.bytes, hold.bytes);
        }
      }
      holds_.pop_front();
    }
    const std::uint64_t refilled = std::uint64_t{available_} + n;
    available_ = refilled > window_ ? window_
                                    : static_cast<std::uint32_t>(refilled);
    hook = drain_hook_;
  }
  credits_.notify_all();
  if (hook) hook();
}

void CreditGate::reset() {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    available_ = window_;
    holds_.clear();
    tenant_inflight_.clear();
    prio_inflight_.fill(0);
    hook = drain_hook_;
  }
  credits_.notify_all();
  if (hook) hook();
}

void CreditGate::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  credits_.notify_all();
}

std::uint32_t CreditGate::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return available_;
}

std::uint32_t CreditGate::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_ - available_;
}

std::uint32_t CreditGate::in_flight_peak() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

std::uint32_t CreditGate::window() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_;
}

bool CreditGate::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

void CreditGate::set_drain_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_hook_ = std::move(hook);
}

// ---- FlowControlledLink -----------------------------------------------------

FlowControlledLink::FlowControlledLink(std::shared_ptr<Link> inner,
                                       std::shared_ptr<CreditGate> gate,
                                       const FlowControlOptions& options,
                                       MetricsRegistry* metrics,
                                       bool fail_fast_throws,
                                       std::shared_ptr<TenantTable> tenants)
    : inner_(std::move(inner)),
      gate_(std::move(gate)),
      options_(options),
      metrics_(metrics),
      fail_fast_throws_(fail_fast_throws),
      tenants_(std::move(tenants)) {}

FlowControlledLink::~FlowControlledLink() {
  // A wrapper replaced without close() (e.g. RelinkableLink swap during
  // re-adoption) still accounts for the packets its rings are abandoning.
  count_shed(drop_all_pending_locked());
}

void FlowControlledLink::count_shed(std::uint64_t n, std::uint16_t tenant) {
  if (!n) return;
  if (metrics_) {
    metrics_->fc_packets_shed.fetch_add(n, std::memory_order_relaxed);
  }
  if (tenants_) tenants_->note_shed(tenant, n);
}

FlowControlledLink::SendClass FlowControlledLink::classify(
    const Packet& packet) const {
  SendClass cls;
  cls.request.bytes = packet.payload_bytes();
  if (!tenants_) return cls;
  const TenantTable::StreamClass sc = tenants_->classify(packet.stream_id());
  cls.request.priority = sc.priority;
  cls.request.tenant = sc.tenant;
  cls.tenant = sc.tenant;
  if (sc.tenant != TenantTable::kNoTenant) {
    const TenantOptions budget = tenants_->budget(sc.tenant);
    if (budget.credit_share() < 1.0) {
      const auto share = static_cast<std::uint32_t>(
          budget.credit_share() * gate_->window());
      cls.request.max_credits = share ? share : 1;
    }
    cls.request.max_bytes = budget.max_inflight_bytes();
  }
  return cls;
}

bool FlowControlledLink::send_with_credit_locked(const PacketPtr& packet,
                                                 const SendClass& cls) {
  if (metrics_) {
    metrics_->fc_credits_consumed.fetch_add(1, std::memory_order_relaxed);
    update_max(metrics_->fc_inflight_peak, gate_->in_flight_peak());
  }
  if (tenants_) tenants_->note_send(cls.tenant, cls.request.bytes);
  return inner_->send(packet);
}

bool FlowControlledLink::flush_pending_locked() {
  // Strict priority order: control first, bulk last.  A throttled head (its
  // tenant is at budget) parks its class and lets lower classes proceed; an
  // empty window stops the flush outright.
  for (auto& ring : pending_) {
    while (!ring.empty()) {
      const SendClass cls = classify(*ring.front());
      const auto acquired = gate_->try_acquire(cls.request);
      if (acquired == CreditGate::Acquire::kThrottled) break;
      if (acquired != CreditGate::Acquire::kOk) {
        has_pending_.store(pending_count_ != 0, std::memory_order_relaxed);
        return pending_count_ == 0;
      }
      PacketPtr packet = std::move(ring.front());
      ring.pop_front();
      --pending_count_;
      if (metrics_) {
        metrics_->fc_pending_depth.fetch_sub(1, std::memory_order_relaxed);
      }
      send_with_credit_locked(packet, cls);
    }
  }
  has_pending_.store(pending_count_ != 0, std::memory_order_relaxed);
  return pending_count_ == 0;
}

void FlowControlledLink::push_pending_locked(const PacketPtr& packet,
                                             Priority priority) {
  const std::size_t capacity = options_.window();
  const auto incoming = static_cast<std::size_t>(priority);
  while (pending_count_ >= capacity) {
    // Evict from the lowest-priority non-empty class.  When the incoming
    // packet itself is the lowest class present, it is the victim.
    std::size_t victim = pending_.size();
    for (std::size_t c = pending_.size(); c-- > 0;) {
      if (!pending_[c].empty()) {
        victim = c;
        break;
      }
    }
    if (victim == pending_.size() || victim < incoming) {
      count_shed(1, tenants_ ? classify(*packet).tenant : TenantTable::kNoTenant);
      return;
    }
    PacketPtr evicted = std::move(pending_[victim].front());
    pending_[victim].pop_front();
    --pending_count_;
    count_shed(1, tenants_ ? classify(*evicted).tenant : TenantTable::kNoTenant);
    if (metrics_) {
      metrics_->fc_pending_depth.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  pending_[incoming].push_back(packet);
  ++pending_count_;
  if (metrics_) {
    metrics_->fc_pending_depth.fetch_add(1, std::memory_order_relaxed);
  }
  has_pending_.store(true, std::memory_order_relaxed);
}

std::size_t FlowControlledLink::drop_all_pending_locked() {
  std::size_t shed = 0;
  for (auto& ring : pending_) {
    shed += ring.size();
    ring.clear();
  }
  pending_count_ = 0;
  if (shed && metrics_) {
    metrics_->fc_pending_depth.fetch_sub(shed, std::memory_order_relaxed);
  }
  has_pending_.store(false, std::memory_order_relaxed);
  return shed;
}

bool FlowControlledLink::send_unavailable_locked(const PacketPtr& packet,
                                                 const SendClass& cls,
                                                 CreditGate::Acquire acquired) {
  if (acquired == CreditGate::Acquire::kClosed) return false;
  if (acquired == CreditGate::Acquire::kThrottled && tenants_) {
    tenants_->note_throttled(cls.tenant);
  }
  switch (options_.policy) {
    case FlowControlPolicy::kBlock: {
      if (metrics_) {
        metrics_->fc_sends_blocked.fetch_add(1, std::memory_order_relaxed);
      }
      // The credits we are about to wait for can only come from the receiver
      // consuming packets already admitted — anything still sitting in a
      // coalescing inner's buffer would never arrive.  Push it out first.
      inner_->flush();
      const std::int64_t start = now_ns();
      const auto blocked = gate_->acquire_for(
          std::int64_t{options_.block_timeout_ms} * 1'000'000, cls.request);
      if (metrics_) {
        metrics_->fc_blocked_ns.fetch_add(
            static_cast<std::uint64_t>(now_ns() - start),
            std::memory_order_relaxed);
      }
      if (blocked == CreditGate::Acquire::kOk) {
        return send_with_credit_locked(packet, cls);
      }
      if (blocked == CreditGate::Acquire::kClosed) return false;
      count_shed(1, cls.tenant);  // timed out: shed, don't wedge the caller
      return true;
    }
    case FlowControlPolicy::kDropOldest: {
      push_pending_locked(packet, cls.request.priority);
      return true;
    }
    case FlowControlPolicy::kFailFast: {
      if (fail_fast_throws_) {
        throw FlowControlError("credit window exhausted (capacity " +
                               std::to_string(gate_->window()) + ")");
      }
      count_shed(1, cls.tenant);
      return true;
    }
  }
  return false;  // unreachable
}

bool FlowControlledLink::send(const PacketPtr& packet) {
  // Control/telemetry traffic (and EOF markers) bypasses credits *and* the
  // wrapper lock: a sender blocked on credits must never delay the control
  // plane that will eventually produce those credits.
  if (!packet || flow_control_exempt(*packet)) return inner_->send(packet);

  std::lock_guard<std::mutex> lock(mutex_);
  const SendClass cls = classify(*packet);
  if (flush_pending_locked()) {  // FIFO: older queued packets go first
    const auto acquired = gate_->try_acquire(cls.request);
    if (acquired == CreditGate::Acquire::kOk) {
      return send_with_credit_locked(packet, cls);
    }
    return send_unavailable_locked(packet, cls, acquired);
  }
  return send_unavailable_locked(packet, cls, CreditGate::Acquire::kExhausted);
}

bool FlowControlledLink::send_batch(std::span<const PacketPtr> packets) {
  if (packets.empty()) return true;
  if (packets.size() == 1) return send(packets.front());

  std::lock_guard<std::mutex> lock(mutex_);
  flush_pending_locked();
  bool ok = true;
  std::size_t start = 0;  // first packet of the current admitted run
  auto flush_run = [&](std::size_t end) {
    if (end > start) {
      ok = inner_->send_batch(packets.subspan(start, end - start)) && ok;
      start = end;
    }
  };
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const PacketPtr& packet = packets[i];
    if (!packet || flow_control_exempt(*packet)) {
      // Exempt packets go out alone (a batch frame must carry only data
      // packets — receivers reject smuggled control/telemetry), in order.
      flush_run(i);
      ok = inner_->send(packet) && ok;
      start = i + 1;
      continue;
    }
    const SendClass cls = classify(*packet);
    const auto acquired = gate_->try_acquire(cls.request);
    if (acquired == CreditGate::Acquire::kOk) {
      if (metrics_) {
        metrics_->fc_credits_consumed.fetch_add(1, std::memory_order_relaxed);
        update_max(metrics_->fc_inflight_peak, gate_->in_flight_peak());
      }
      if (tenants_) tenants_->note_send(cls.tenant, cls.request.bytes);
      // Hand the run over the moment it drains the window: the receiver can
      // start consuming (and granting) while the rest of the batch is still
      // being admitted.
      if (gate_->available() == 0) flush_run(i + 1);
      continue;
    }
    // Out of credits mid-batch: emit the admitted run as one frame, push
    // this packet through the single-send policy path, start a new run.
    flush_run(i);
    ok = send_unavailable_locked(packet, cls, acquired) && ok;
    start = i + 1;
  }
  flush_run(packets.size());
  // Burst boundary: a batch is a complete unit of upstream work, and unless
  // the window ended exactly exhausted (which already pressure-flushed a
  // coalescing inner), nothing downstream is guaranteed to move the tail.
  // Buffered tail packets hold credits; if no further send ever comes, the
  // receiver can neither consume nor grant — flush deterministically instead
  // of relying on the window parity the per-packet path happens to have.
  ok = inner_->flush() && ok;
  return ok;
}

bool FlowControlledLink::flush() {
  pump();
  return inner_->flush();
}

void FlowControlledLink::pump() {
  if (!has_pending_.load(std::memory_order_relaxed)) return;
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // a sender holds the lane; it will flush
  flush_pending_locked();
}

void FlowControlledLink::close() {
  pump();          // last chance to deliver pending packets against credits
  gate_->close();  // wakes blocked senders before we contend for the lock
  std::lock_guard<std::mutex> lock(mutex_);
  count_shed(drop_all_pending_locked());
  inner_->close();
}

std::function<void()> credit_wake_hook(InboxPtr inbox) {
  return [inbox = std::move(inbox), marker = make_attach_marker_packet()] {
    inbox->try_push(Envelope{Origin::kParent, 0, marker});
  };
}

}  // namespace tbon
