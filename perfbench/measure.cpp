#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double status_mb(const char* key) {
  double kb = -1;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const size_t len = std::strlen(key);
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::strncmp(line, key, len) == 0) kb = std::strtod(line + len, nullptr);
    std::fclose(f);
  }
  return kb < 0 ? -1 : kb * 1024.0 / 1e6;
}

void json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

/// ceil(p / 100 * n), at least 1. p * n is an exact integer in a double for
/// integral p, and dividing an exact multiple of 100 by 100 is exact, so
/// the ceiling never rounds up past the true rank.
size_t nearest_rank(size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0);
  return r < 1 ? 1 : std::min(n, static_cast<size_t>(r));
}

}  // namespace

double wall_s() { return clock_s(CLOCK_MONOTONIC); }
double cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double rss_mb() { return status_mb("VmRSS:"); }
double peak_rss_mb() { return status_mb("VmHWM:"); }

size_t reported_rank(size_t n, double wanted) {
  if (n == 0) return 0;
  const size_t rank = nearest_rank(n, wanted);
  if (wanted <= 50) return rank;
  // Ten samples beyond rank r need r <= n - 10.
  const size_t highest = n > 10 ? n - 10 : 0;
  return std::max(nearest_rank(n, 50), std::min(rank, highest));
}

double reported_percentile(std::vector<double>& v, double wanted) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[reported_rank(v.size(), wanted) - 1];
}

double median(std::vector<double> v) { return reported_percentile(v, 50); }

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.items.size(); ++i) {
    const Metric& m = metrics.items[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    json_number(out, m.value);
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int64_t SpanLog::begin(const char* name) {
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({name, wall_s(), -1, open_.empty() ? -1 : open_.back(), 1});
  open_.push_back(id);
  return id;
}

void SpanLog::end(int64_t id, uint64_t count) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_s = wall_s();
  s.count = count;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"run\":%llu,\"id\":%zu,\"parent\":%lld,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f,\"count\":%llu}\n",
                  static_cast<unsigned long long>(run_id_), i,
                  static_cast<long long>(s.parent), s.name, (s.start_s - origin_) * 1e6,
                  (s.end_s - origin_) * 1e6, static_cast<unsigned long long>(s.count));
    out << buf;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
