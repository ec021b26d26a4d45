// Measurement primitives of the benchmark: clocks, process memory, the
// percentile rule, the metric list printed as the result line, and the span
// recorder of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds since an arbitrary origin.
double wall_s();
/// CPU time of the whole process (every thread), seconds.
double cpu_s();
/// Resident set now / high-water mark, in MB (1e6 bytes); -1 if unknown.
double rss_mb();
double peak_rss_mb();

// --- percentiles ------------------------------------------------------------

/// The 1-based nearest rank reported for a requested percentile of `n`
/// samples: the rank of `wanted` when at least ten samples lie beyond it,
/// otherwise rank n - 10, but never below the median's rank. 0 when n = 0.
size_t reported_rank(size_t n, double wanted);
/// The sample at reported_rank(v.size(), wanted) (v is sorted in place);
/// 0 for an empty vector.
double reported_percentile(std::vector<double>& v, double wanted);
double median(std::vector<double> v);

// --- result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricList {
  std::vector<Metric> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                         const MetricList& metrics);

// --- spans ------------------------------------------------------------------

/// In-memory span log of the traced run. A span covers one call the
/// benchmark makes into a layer (or a batch of `count` identical calls);
/// `parent` is the enclosing span (-1 at top level) and every span of one
/// process carries the same run id. Written out once, at the end.
class SpanLog {
 public:
  explicit SpanLog(uint64_t run_id) : run_id_(run_id), origin_(wall_s()) {}

  /// Open a span nested in the innermost open one; returns its id.
  int64_t begin(const char* name);
  /// Close span `id` (must be the innermost open one), covering `count` calls.
  void end(int64_t id, uint64_t count = 1);

  size_t size() const { return spans_.size(); }
  /// JSON Lines, one span per line (format in perfbench/README.md).
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int64_t parent;
    uint64_t count;
  };
  uint64_t run_id_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name) : log_(log), id_(log ? log->begin(name) : -1) {}
  ~SpanScope() {
    if (log_) log_->end(id_, count_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_count(uint64_t c) { count_ = c; }

 private:
  SpanLog* log_;
  int64_t id_;
  uint64_t count_ = 1;
};

}  // namespace perfbench
