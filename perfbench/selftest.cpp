// Tests of the benchmark's own code: the percentile rule, failed-operation
// accounting on a run crashed beyond t, the replica-digest check after the
// open-loop drain, and that tracing leaves every virtual-time observable
// untouched. Exits 1 if any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;
using namespace icc;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::fprintf(stderr, "%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

size_t beyond(const std::vector<double>& v, double x) {
  size_t k = 0;
  for (double y : v) k += y > x;
  return k;
}

void percentile_rule() {
  // At least ten samples must lie beyond the reported percentile.
  check(reported_rank(1000, 99) == 990, "p99 of 1000 samples is rank 990");
  check(reported_rank(100, 90) == 90, "p90 of 100 samples is rank 90 (ten beyond)");
  check(reported_rank(99, 90) == 89, "p90 of 99 samples drops to rank 89");
  check(reported_rank(220, 99) == 210, "p99 of 220 samples drops to rank 210");
  check(reported_rank(19, 90) == 10, "fewer than 20 samples report the median");
  check(reported_rank(30, 10) == 3, "a low percentile is never raised");
  check(reported_rank(0, 50) == 0, "no samples, no rank");

  // Distinct samples, shuffled: exactly ten lie beyond p90/p99 whenever the
  // rule has to lower the rank, and at least ten otherwise.
  for (size_t n : {20, 49, 50, 99, 100, 101, 220, 333, 1000, 1001}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7919) % n));
    for (double wanted : {90.0, 99.0}) {
      const size_t nominal = static_cast<size_t>(std::ceil(wanted * static_cast<double>(n) / 100.0));
      const size_t b = beyond(v, reported_percentile(v, wanted));
      const bool ok = nominal > n - 10 ? b == 10 : b == n - nominal;
      char what[64];
      std::snprintf(what, sizeof what, "p%g of %zu samples keeps ten beyond", wanted, n);
      check(ok, what);
    }
  }
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100..1, unsorted
  check(near(reported_percentile(v, 90), 90), "nearest rank: p90 of 1..100 is 90");
  check(near(median({3, 1, 2}), 2), "median of three");
}

void crashed_beyond_t() {
  // n = 4 tolerates t = 1; crashing slots 2 and 3 leaves no quorum, so no
  // round can commit and every attempted operation must count as failed.
  WorkloadRun run(*find_workload("soak-n4-fast"), 5, nullptr, {2, 3});
  Window w = run.measure(0, sim::seconds(2));
  const Outcome o = run.finish();
  check(w.blocks() == 0, "no block commits without a quorum");
  check(o.attempted >= 1, "the stalled round counts as attempted");
  check(o.failed == o.attempted, "failed_frac is 1 when nothing commits");
  check(!o.correct, "the run is reported incorrect");
}

void replicas_compared_at_equal_heights() {
  // A window ending at 10.79 virtual seconds once left the drain at a point
  // where some replicas had committed one block more than others.
  WorkloadRun run(*find_workload("subnet-n13-wan"), 38);
  run.measure(0, sim::msec(10790));
  const Outcome o = run.finish();
  check(o.correct && o.failed == 0, "subnet-n13-wan: KvStore digests agree after the drain");
}

void tracing_is_invisible() {
  struct Case {
    const char* name;
    sim::Duration window;
  };
  const Case cases[] = {{"soak-n4-fast", sim::seconds(2)},
                        {"par-n32-real", sim::msec(300)},
                        {"subnet-n13-wan", sim::seconds(20)},
                        {"icc2-n13-rbc", sim::seconds(1)}};
  for (const Case& c : cases) {
    const WorkloadSpec& spec = *find_workload(c.name);
    WorkloadRun plain(spec, 3);
    SpanLog spans(3);
    WorkloadRun traced(spec, 3, &spans);
    const Window a = plain.measure(0, c.window);
    const Window b = traced.measure(0, c.window);
    const Outcome oa = plain.finish();
    const Outcome ob = traced.finish();
    const std::string what = std::string(c.name) + ": traced run has identical virtual-time metrics";
    check(a.blocks() > 0 && a.blocks() == b.blocks() && a.end.virt == b.end.virt &&
              a.end.wire_msgs == b.end.wire_msgs && a.end.wire_bytes == b.end.wire_bytes &&
              a.virt_latency_ms == b.virt_latency_ms && a.request_ms == b.request_ms &&
              a.payload_bytes == b.payload_bytes && oa.attempted == ob.attempted &&
              oa.failed == ob.failed,
          what.c_str());
    check(oa.correct && ob.correct, (std::string(c.name) + ": both runs pass every check").c_str());
    check(spans.size() > 0, (std::string(c.name) + ": the traced run recorded spans").c_str());
  }
}

}  // namespace

int main() {
  percentile_rule();
  crashed_beyond_t();
  replicas_compared_at_equal_heights();
  tracing_is_invisible();
  std::fprintf(stderr, "%d check(s) failed\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
