// The traced run's recording side: a per-process span log written to one
// file per flush, and wrapper filters that time every filter and sync call
// while forwarding each hook unchanged to the built-in they wrap.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <mutex>

#include "core/registry.hpp"
#include "perfbench.hpp"

namespace pb {

namespace {

std::mutex g_log_mutex;
std::vector<Span> g_log;  // guarded by g_log_mutex
std::uint64_t g_flushes = 0;  // guarded by g_log_mutex

/// Wraps a transform filter: forwards every hook (filter_batch too, so a
/// built-in's batch fast path stays in use) and times each call.
class TracedTransform final : public tbon::TransformFilter {
 public:
  TracedTransform(std::unique_ptr<tbon::TransformFilter> inner,
                  const tbon::FilterContext& ctx)
      : inner_(std::move(inner)),
        node_(static_cast<std::int32_t>(ctx.node_id)),
        stream_(static_cast<std::int32_t>(ctx.stream_id)),
        interior_(!ctx.is_root && !ctx.is_leaf) {}

  TracedTransform(const TracedTransform&) = delete;
  TracedTransform& operator=(const TracedTransform&) = delete;

  ~TracedTransform() override {
    record({SpanKind::kFilterTotals, node_, stream_, 0, calls_, packets_, busy_ns_});
    if (interior_) flush_spans();  // the front-end flushes its own log
  }

  void filter(std::span<const tbon::PacketPtr> in, std::vector<tbon::PacketPtr>& out,
              tbon::FilterContext& ctx) override {
    const std::int64_t t0 = now_ns();
    inner_->filter(in, out, ctx);
    note(t0, in.size());
  }

  void filter_batch(std::span<const tbon::PacketPtr> in, std::vector<tbon::PacketPtr>& out,
                    tbon::FilterContext& ctx) override {
    const std::int64_t t0 = now_ns();
    inner_->filter_batch(in, out, ctx);
    note(t0, in.size());
  }

  void flush(std::vector<tbon::PacketPtr>& out, tbon::FilterContext& ctx) override {
    inner_->flush(out, ctx);
  }

  void membership_changed(const tbon::MembershipChange& change,
                          std::vector<tbon::PacketPtr>& out,
                          tbon::FilterContext& ctx) override {
    inner_->membership_changed(change, out, ctx);
  }

 private:
  void note(std::int64_t t0, std::size_t packets) {
    const std::int64_t t1 = now_ns();
    if (trace_config().sampled(calls_)) {
      record({SpanKind::kFilter, node_, stream_, static_cast<std::int32_t>(packets),
              calls_, t0, t1});
    }
    ++calls_;
    packets_ += static_cast<std::int64_t>(packets);
    busy_ns_ += t1 - t0;
  }

  std::unique_ptr<tbon::TransformFilter> inner_;
  std::int32_t node_;
  std::int32_t stream_;
  bool interior_;
  std::int64_t calls_ = 0;
  std::int64_t packets_ = 0;
  std::int64_t busy_ns_ = 0;
};

/// Wraps a sync policy: forwards every hook and records when each packet
/// arrives and how long each wave was held before release.  Wave w is the
/// w-th packet from every child (the per-stream FIFO that wait_for_all
/// relies on), so the first arrival of wave w is known per index.
class TracedSync final : public tbon::SyncPolicy {
 public:
  TracedSync(std::unique_ptr<tbon::SyncPolicy> inner, const tbon::FilterContext& ctx)
      : inner_(std::move(inner)),
        node_(static_cast<std::int32_t>(ctx.node_id)),
        stream_(static_cast<std::int32_t>(ctx.stream_id)) {}

  void on_packet(std::size_t child, tbon::PacketPtr packet,
                 tbon::FilterContext& ctx) override {
    const std::int64_t t = now_ns();
    if (child >= arrivals_.size()) arrivals_.resize(child + 1, 0);
    const std::int64_t index = arrivals_[child]++;
    first_arrival_.try_emplace(index, t);
    if (trace_config().sampled(index)) {
      record({SpanKind::kSyncArrive, node_, stream_, static_cast<std::int32_t>(child),
              index, t, t});
    }
    inner_->on_packet(child, std::move(packet), ctx);
  }

  std::vector<Batch> drain_ready(std::int64_t now, tbon::FilterContext& ctx) override {
    std::vector<Batch> batches = inner_->drain_ready(now, ctx);
    if (!batches.empty()) {
      const std::int64_t t = now_ns();
      for (std::size_t i = 0; i < batches.size(); ++i) {
        const std::int64_t wave = released_++;
        const auto it = first_arrival_.find(wave);
        if (it == first_arrival_.end()) continue;
        if (trace_config().sampled(wave)) {
          record({SpanKind::kSyncHold, node_, stream_, 0, wave, it->second, t});
        }
        first_arrival_.erase(it);
      }
    }
    return batches;
  }

  std::vector<Batch> flush(tbon::FilterContext& ctx) override { return inner_->flush(ctx); }

  void membership_changed(const tbon::MembershipChange& change,
                          tbon::FilterContext& ctx) override {
    inner_->membership_changed(change, ctx);
  }

  std::optional<std::int64_t> next_deadline() const override {
    return inner_->next_deadline();
  }
  std::size_t buffered() const override { return inner_->buffered(); }
  void child_failed(std::size_t child) override { inner_->child_failed(child); }
  void child_added() override { inner_->child_added(); }
  void child_revived(std::size_t child) override { inner_->child_revived(child); }

 private:
  std::unique_ptr<tbon::SyncPolicy> inner_;
  std::int32_t node_;
  std::int32_t stream_;
  std::vector<std::int64_t> arrivals_;
  std::map<std::int64_t, std::int64_t> first_arrival_;
  std::int64_t released_ = 0;
};

}  // namespace

TraceConfig& trace_config() {
  static TraceConfig config;
  return config;
}

void record(const Span& span) {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  g_log.push_back(span);
}

void flush_spans() {
  std::vector<Span> spans;
  std::uint64_t serial = 0;
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    spans.swap(g_log);
    serial = g_flushes++;
  }
  if (spans.empty() || trace_config().dir.empty()) return;
  const std::string path = trace_config().dir + "/" + std::to_string(::getpid()) + "-" +
                           std::to_string(serial) + ".spans";
  if (std::FILE* file = std::fopen(path.c_str(), "wb")) {
    const std::size_t written = std::fwrite(spans.data(), sizeof(Span), spans.size(), file);
    std::fclose(file);
    if (written != spans.size()) std::fprintf(stderr, "perfbench: short write to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

std::vector<Span> read_spans(const std::string& dir) {
  std::vector<Span> spans;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return spans;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() < 6 || name.compare(name.size() - 6, 6, ".spans") != 0) continue;
    const std::string path = dir + "/" + name;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) continue;
    Span span;
    while (std::fread(&span, sizeof(Span), 1, file) == 1) spans.push_back(span);
    std::fclose(file);
  }
  ::closedir(handle);
  return spans;
}

std::int64_t self_cpu_ns() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

void register_traced_filters() {
  tbon::FilterRegistry& registry = tbon::FilterRegistry::instance();
  for (const char* name : {"sum", "mean_shift"}) {
    const std::string inner = name;
    registry.register_transform("pb_" + inner, [inner](const tbon::FilterContext& ctx) {
      return std::make_unique<TracedTransform>(
          tbon::FilterRegistry::instance().make_transform(inner, ctx), ctx);
    });
  }
  registry.register_sync("pb_wait_for_all", [](const tbon::FilterContext& ctx) {
    return std::make_unique<TracedSync>(
        tbon::FilterRegistry::instance().make_sync("wait_for_all", ctx), ctx);
  });
}

}  // namespace pb
