#pragma once
///
/// \file spans.hpp
/// \brief Spans recorded by the benchmark around its own calls into
/// tramlib, for the traced run.
///
/// Each worker thread owns one SpanLog, written only by that thread. A
/// span has a name (Site), start, end, parent and, on ig-closed, the
/// request id. Self time is the span's duration minus the durations of
/// its direct children, accumulated as spans close. The first
/// kKeptPerThread spans of each thread are kept in memory and written as
/// Chrome trace JSON when the benchmark ends.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The call boundaries the benchmark wraps.
enum class Site : std::uint8_t {
  kCoreInsert,   // core::TramDomain Handle::insert
  kCoreFlush,    // core::TramDomain Handle::flush_all
  kRouteInsert,  // route::RoutedDomain Handle::insert
  kRouteFlush,   // route::RoutedDomain Handle::flush_all
  kHandler,      // a benchmark-owned deliver callback
  kCount,
};

inline const char* site_name(Site s) {
  switch (s) {
    case Site::kCoreInsert: return "core.insert";
    case Site::kCoreFlush: return "core.flush_all";
    case Site::kRouteInsert: return "route.insert";
    case Site::kRouteFlush: return "route.flush_all";
    case Site::kHandler: return "app.deliver";
    case Site::kCount: break;
  }
  return "?";
}

constexpr std::size_t kSites = static_cast<std::size_t>(Site::kCount);

/// Duration totals of one site, over the spans that closed.
struct SiteTotals {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;

  void merge(const SiteTotals& o) {
    spans += o.spans;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
  }
  double mean_ns() const {
    return spans == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(spans);
  }
  double mean_self_ns() const {
    return spans == 0 ? 0.0
                      : static_cast<double>(self_ns) /
                            static_cast<double>(spans);
  }
};

class SpanLog {
 public:
  static constexpr std::size_t kKeptPerThread = 4096;
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t req;
    std::uint32_t parent;  // index into the kept spans, or kNoParent
    Site site;
  };

  /// `clock_overhead_ns` is subtracted from every duration: the cost of
  /// the now_ns() pair a span adds around the call it measures.
  void set_clock_overhead(std::uint64_t ns) { overhead_ns_ = ns; }

  void open(Site site, std::uint64_t req = 0) {
    Open& o = stack_[depth_++];
    o.site = site;
    o.req = req;
    o.child_ns = 0;
    o.kept = kNoParent;
    if (kept_.size() < kKeptPerThread) {
      o.kept = static_cast<std::uint32_t>(kept_.size());
      const std::uint32_t parent =
          depth_ > 1 ? stack_[depth_ - 2].kept : kNoParent;
      kept_.push_back(Span{0, 0, req, parent, site});
    }
    o.start_ns = now_ns();
  }

  void close() {
    const std::uint64_t end = now_ns();
    Open& o = stack_[--depth_];
    std::uint64_t dur = end - o.start_ns;
    dur = dur > overhead_ns_ ? dur - overhead_ns_ : 0;
    SiteTotals& t = totals_[static_cast<std::size_t>(o.site)];
    ++t.spans;
    t.total_ns += dur;
    t.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (o.kept != kNoParent) {
      kept_[o.kept].start_ns = o.start_ns;
      kept_[o.kept].end_ns = end;
    }
  }

  /// Start a run: totals restart, kept spans stay (the trace file shows
  /// the first kKeptPerThread spans of the invocation).
  void reset_totals() { totals_ = {}; }
  const SiteTotals& totals(Site s) const {
    return totals_[static_cast<std::size_t>(s)];
  }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t req;
    std::uint32_t kept;
    Site site;
  };
  std::array<Open, 8> stack_{};
  int depth_ = 0;
  std::uint64_t overhead_ns_ = 0;
  std::array<SiteTotals, kSites> totals_{};
  std::vector<Span> kept_;
};

/// RAII span; a no-op unless `log` is non-null.
class SpanScope {
 public:
  SpanScope(SpanLog* log, Site site, std::uint64_t req = 0) : log_(log) {
    if (log_ != nullptr) log_->open(site, req);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

/// Median cost of an empty span's clock pair, in ns.
inline std::uint64_t calibrate_clock_overhead() {
  std::vector<std::uint64_t> d(2001);
  for (auto& x : d) {
    const std::uint64_t a = now_ns();
    x = now_ns() - a;
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return d[1000];
}

/// Write every thread's kept spans as Chrome trace JSON ("X" events; ts
/// and dur in microseconds; tid is the worker id).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<SpanLog>& logs,
                               std::uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const auto& s : logs[tid].kept()) {
      if (s.end_ns == 0) continue;  // still open when the run ended
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                   "\"req\":%llu}}",
                   first ? "" : ",", site_name(s.site), tid,
                   static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   s.parent == SpanLog::kNoParent
                       ? -1
                       : static_cast<int>(s.parent),
                   static_cast<unsigned long long>(s.req));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
