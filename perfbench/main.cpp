// icc_perfbench: one measured run of one named workload.
//
//   icc_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//   icc_perfbench --legacy
//
// --trace 0 times the workload from outside with telemetry off and prints
// every end-to-end metric; --trace 1 runs an untraced and a traced leg and
// prints every per-layer metric (perfbench/README.md has the definitions).
// The last stdout line is the JSON result; a table goes to stderr. A failed
// correctness check exits 1. --legacy reruns the old BENCH_parallel.json and
// BENCH_table1.json settings through the workload definitions and prints
// their numbers as one JSON line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "obs/runtime.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using namespace icc;

// Set-up is timed in batches of constructions, each batch about
// kSetupBatch_s of wall time: a single n = 4 set-up takes tens of
// microseconds. At least kMinSetupBatches batches and kMinSetupWall_s in
// all; setup_s is the median batch mean.
constexpr int kMinSetupBatches = 7;
constexpr double kSetupBatch_s = 0.005;
constexpr double kMinSetupWall_s = 0.3;

double per_block(double v, double blocks) { return blocks > 0 ? v / blocks : 0; }

/// Build the workload repeatedly and keep the last build. Each build is
/// timed from input generation to the first event (Cluster::Cluster starts
/// the simulation but runs nothing); tearing the previous one down is not.
std::unique_ptr<WorkloadRun> set_up(const WorkloadSpec& spec, uint64_t seed, double& setup_s) {
  auto timed_build = [&](std::unique_ptr<WorkloadRun>& run) {
    run.reset();
    const double t0 = wall_s();
    run = std::make_unique<WorkloadRun>(spec, seed);
    return wall_s() - t0;
  };
  std::unique_ptr<WorkloadRun> run;
  const double first = timed_build(run);
  const int per_batch = std::max(1, static_cast<int>(kSetupBatch_s / first));
  std::vector<double> batch_means;
  double total = first;
  while (batch_means.size() < kMinSetupBatches || total < kMinSetupWall_s) {
    double batch = 0;
    for (int i = 0; i < per_batch; ++i) batch += timed_build(run);
    batch_means.push_back(batch / per_batch);
    total += batch;
  }
  setup_s = median(batch_means);
  return run;
}

void add_outcome(Outcome& total, const Outcome& o) {
  total.correct = total.correct && o.correct;
  total.attempted += o.attempted;
  total.failed += o.failed;
  total.problems.insert(total.problems.end(), o.problems.begin(), o.problems.end());
}

double rss_slope_per_100_blocks(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 2) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  const double den = n * sxx - sx * sx;
  return den > 0 ? 100.0 * (n * sxy - sx * sy) / den : 0;
}

MetricList end_to_end(Window& w, double setup_s) {
  MetricList m;
  const double blocks = w.blocks();
  m.add("blocks_per_s", w.wall_s() > 0 ? blocks / w.wall_s() : 0, "1/s");
  m.add("cpu_ms_per_block", per_block(w.cpu_s() * 1e3, blocks), "ms");
  m.add("block_wall_ms_p50", reported_percentile(w.commit_gap_ms, 50), "ms");
  m.add("block_wall_ms_p90", reported_percentile(w.commit_gap_ms, 90), "ms");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", w.peak_rss_mb, "MB");
  m.add("virt_latency_ms_p50", reported_percentile(w.virt_latency_ms, 50), "virt_ms");
  m.add("virt_latency_ms_p99", reported_percentile(w.virt_latency_ms, 99), "virt_ms");
  m.add("virt_blocks_per_s", w.span_virt_s() > 0 ? w.span_blocks() / w.span_virt_s() : 0, "1/virt_s");
  m.add("wire_kb_per_block",
        per_block(static_cast<double>(w.span_end.wire_bytes - w.begin.wire_bytes) / 1e3, w.span_blocks()),
        "kB");
  m.add("virt_request_ms_p50", reported_percentile(w.request_ms, 50), "virt_ms");
  m.add("virt_request_ms_p99", reported_percentile(w.request_ms, 99), "virt_ms");
  return m;
}

void print_samples(const char* what, size_t n, double wanted) {
  std::fprintf(stderr, "  %-24s n=%-8zu p%g reported at rank %zu\n", what, n, wanted,
               reported_rank(n, wanted));
}

int finish_run(const Outcome& outcome, const MetricList& metrics) {
  for (const Metric& m : metrics.items)
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& p : outcome.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::fprintf(stderr, "  operations: %llu attempted, %llu failed (failed_frac %.4f)\n",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               outcome.attempted ? static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted) : 0.0);
  std::printf("%s\n", result_json(outcome.correct, outcome.attempted, outcome.failed, metrics).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

int untraced_main(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  double setup_s = 0;
  auto run = set_up(spec, seed, setup_s);
  run->warm_up();
  Window w = run->measure(seconds);
  const Outcome outcome = run->finish();
  if (w.blocks() == 0) {
    Outcome none = outcome;
    none.correct = false;
    none.failed = none.attempted;
    none.problems.push_back("no block committed in the measured window");
    return finish_run(none, end_to_end(w, setup_s));
  }
  std::fprintf(stderr, "%s seed %llu: %.0f blocks in %.3f s wall, %zu thread(s)\n", spec.name.c_str(),
               static_cast<unsigned long long>(seed), w.blocks(), w.wall_s(), spec.threads);
  print_samples("block_wall_ms", w.commit_gap_ms.size(), 90);
  print_samples("virt_latency_ms", w.virt_latency_ms.size(), 99);
  print_samples("virt_request_ms", w.request_ms.size(), 99);
  return finish_run(outcome, end_to_end(w, setup_s));
}

int traced_main(const WorkloadSpec& spec, uint64_t seed, double seconds, const std::string& spans_path) {
  SpanLog spans(seed);
  Outcome outcome;

  // Untraced leg: the throughput reference for trace.overhead_frac.
  double untraced_bps = 0, untraced_cpu_ms = 0;
  std::vector<std::pair<double, double>> rss_points;
  {
    SpanScope leg(&spans, "bench.untraced_leg");
    double setup_s = 0;
    auto run = set_up(spec, seed, setup_s);
    run->warm_up();
    Window w = run->measure(0.4 * seconds);
    untraced_bps = w.blocks() / w.wall_s();
    untraced_cpu_ms = per_block(w.cpu_s() * 1e3, w.blocks());
    rss_points = w.rss;
    add_outcome(outcome, run->finish());
  }

  // Traced leg: telemetry, decorators and spans on.
  const int64_t leg = spans.begin("bench.traced_leg");
  WorkloadRun run(spec, seed, &spans);
  run.warm_up();
  Window w = run.measure(0.4 * seconds);
  std::vector<double> step_us;
  uint64_t steps = 0;
  const uint64_t step_blocks = run.step_segment(0.1 * seconds, step_us, steps);
  const obs::RuntimeReport report = run.cluster().runtime_report();
  const Snapshot total = run.snapshot();
  add_outcome(outcome, run.finish());

  Bytes payload = run.sample_payload();
  if (payload.empty()) {
    consensus::FixedSizePayload builder(spec.payload_size);
    payload = builder.build(1, 0, {});
  }
  const LayerCosts cost =
      replay_layers(spec, seed, run.cluster().crypto(), payload, run.wire_size_counts(), &spans);

  const double blocks = w.blocks();
  const double honest = static_cast<double>(spec.n - (spec.subnet ? spec.n / 3 : 0));
  const double decoded = static_cast<double>(w.end.pipe.decoded - w.begin.pipe.decoded);
  const double duplicates = static_cast<double>(w.end.pipe.duplicates - w.begin.pipe.duplicates);
  const double checks = static_cast<double>(
      (w.end.verify.provider_verifications + w.end.verify.cache_hits) -
      (w.begin.verify.provider_verifications + w.begin.verify.cache_hits));
  const double real_vfy =
      static_cast<double>(w.end.intern.real_verifications - w.begin.intern.real_verifications);
  const double parses = static_cast<double>(w.end.intern.parses - w.begin.intern.parses);
  const double decode_hits = static_cast<double>(w.end.intern.decode_hits - w.begin.intern.decode_hits);
  const double delivered = w.delta("rbc.blocks_delivered");
  const double requests = w.delta("gossip.requests_sent");

  MetricList m;
  m.add("sim.events_per_block", per_block(static_cast<double>(steps), static_cast<double>(step_blocks)), "count");
  m.add("sim.step_us_p50", reported_percentile(step_us, 50), "us");
  m.add("sim.step_us_p99", reported_percentile(step_us, 99), "us");
  m.add("sim.msgs_per_block", per_block(static_cast<double>(w.end.wire_msgs - w.begin.wire_msgs), blocks), "count");

  const double types_ms =
      ((cost.parse_us + cost.serialize_us + cost.artifact_id_us) * per_block(parses, blocks) +
       (cost.pool_add_us + cost.pool_query_us) * per_block(decoded, blocks)) / 1e3;
  m.add("types.parse_us", cost.parse_us, "us");
  m.add("types.serialize_us", cost.serialize_us, "us");
  m.add("types.artifact_id_us", cost.artifact_id_us, "us");
  m.add("types.pool_add_us", cost.pool_add_us, "us");
  m.add("types.pool_query_us", cost.pool_query_us, "us");
  m.add("types.modeled_ms_per_block", types_ms, "ms");

  m.add("pipeline.decoded_per_block", per_block(decoded, blocks), "count");
  m.add("pipeline.useful_ratio", decoded + duplicates > 0 ? decoded / (decoded + duplicates) : 0, "ratio");
  m.add("pipeline.checks_per_block", per_block(checks, blocks), "count");
  m.add("pipeline.memo_hit_ratio", checks > 0 ? 1.0 - real_vfy / checks : 0, "ratio");
  m.add("pipeline.intern_parses_per_block", per_block(parses, blocks), "count");
  m.add("pipeline.intern_hit_ratio", parses + decode_hits > 0 ? decode_hits / (parses + decode_hits) : 0, "ratio");
  m.add("pipeline.decode_ms_per_block", per_block(w.delta("pipeline.decode_wall_ns.sum") / 1e6, blocks), "ms");
  m.add("pipeline.verify_ms_per_block", per_block(w.delta("pipeline.verify_wall_ns.sum") / 1e6, blocks), "ms");

  // Per block every honest party signs a notarization, a finalization and a
  // beacon share and combines a notarization and a finalization; real
  // verifications are counted by the intern store.
  const double crypto_ms = (honest * (2 * cost.sign_share_us + cost.beacon_share_us + 2 * cost.combine_us) +
                            per_block(real_vfy, blocks) * cost.verify_share_us) / 1e3;
  m.add("crypto.sign_share_us", cost.sign_share_us, "us");
  m.add("crypto.verify_share_us", cost.verify_share_us, "us");
  m.add("crypto.beacon_share_us", cost.beacon_share_us, "us");
  m.add("crypto.combine_us", cost.combine_us, "us");
  m.add("crypto.sha256_mb_per_s", cost.sha256_mb_per_s, "MB/s");
  m.add("crypto.real_verifications_per_block", per_block(real_vfy, blocks), "count");
  m.add("crypto.modeled_ms_per_block", crypto_ms, "ms");
  m.add("crypto.keygen_s", cost.keygen_s, "s");

  // Per RBC delivery a party checks n Merkle paths, decodes, re-encodes and
  // rebuilds the tree; the proposer encodes and builds once per block.
  const double codec_ms =
      delivered > 0 ? (cost.rs_encode_us + cost.merkle_build_us +
                       per_block(delivered, blocks) * (cost.rs_decode_us + cost.rs_encode_us + cost.merkle_build_us +
                                                       static_cast<double>(spec.n) * cost.merkle_verify_us)) / 1e3
                    : 0;
  m.add("codec.rs_encode_us", cost.rs_encode_us, "us");
  m.add("codec.rs_decode_us", cost.rs_decode_us, "us");
  m.add("codec.merkle_build_us", cost.merkle_build_us, "us");
  m.add("codec.merkle_verify_us", cost.merkle_verify_us, "us");
  m.add("codec.modeled_ms_per_block", codec_ms, "ms");

  m.add("rbc.delivered_per_block", per_block(delivered, blocks), "count");
  m.add("rbc.delivered_kb_per_block", per_block(w.delta("rbc.delivered_bytes") / 1e3, blocks), "kB");

  m.add("gossip.adverts_per_block", per_block(w.delta("gossip.adverts"), blocks), "count");
  m.add("gossip.requests_per_block", per_block(requests, blocks), "count");
  m.add("gossip.retry_ratio", requests > 0 ? w.delta("gossip.request_retries") / requests : 0, "ratio");
  m.add("gossip.served_kb_per_block", per_block(w.delta("gossip.served_bytes") / 1e3, blocks), "kB");

  m.add("smr.build_us_p50", reported_percentile(run.build_us, 50), "us");
  m.add("smr.build_us_p99", reported_percentile(run.build_us, 99), "us");
  m.add("smr.apply_us_p50", reported_percentile(run.apply_us, 50), "us");
  m.add("smr.payload_kb_per_block", per_block(static_cast<double>(w.payload_bytes) / 1e3, blocks), "kB");

  const double rounds = w.delta("consensus.rounds");
  const double gaps = w.delta("consensus.finalize_gap_rounds.count");
  m.add("consensus.clean_round_ratio", rounds > 0 ? w.delta("consensus.rounds_clean") / rounds : 0, "ratio");
  m.add("consensus.finalize_gap_mean", gaps > 0 ? w.delta("consensus.finalize_gap_rounds.sum") / gaps : 0, "rounds");
  m.add("consensus.unattributed_ms_per_block", untraced_cpu_ms - types_ms - crypto_ms - codec_ms, "ms");

  const obs::RuntimeAnalysis rt = obs::analyze_runtime(report);
  double lock_wait_ns = 0;
  for (const auto& worker : report.workers)
    for (const auto& lock : worker.locks) lock_wait_ns += static_cast<double>(lock.wait_ns);
  m.add("executor.threads", static_cast<double>(report.threads), "count");
  m.add("executor.utilization", rt.utilization, "ratio");
  m.add("executor.serial_fraction", rt.serial_fraction, "ratio");
  m.add("executor.parallel_region_share", rt.parallel_region_share, "ratio");
  m.add("executor.lock_wait_ms_per_block", per_block(lock_wait_ns / 1e6, static_cast<double>(total.blocks)), "ms");

  m.add("harness.rss_mb_per_100_blocks", rss_slope_per_100_blocks(rss_points), "MB");
  const double traced_bps = w.blocks() / w.wall_s();
  m.add("trace.overhead_frac", traced_bps > 0 ? untraced_bps / traced_bps - 1.0 : 0, "ratio");

  std::fprintf(stderr,
               "%s seed %llu traced: %.0f blocks traced, %.1f untraced blk/s, %.1f traced blk/s, "
               "%zu thread(s)\n",
               spec.name.c_str(), static_cast<unsigned long long>(seed), blocks, untraced_bps, traced_bps,
               spec.threads);
  print_samples("sim.step_us", step_us.size(), 99);
  print_samples("smr.build_us", run.build_us.size(), 99);
  if (w.blocks() == 0) {
    outcome.correct = false;
    outcome.failed = outcome.attempted;
    outcome.problems.push_back("no block committed in the traced window");
  }
  spans.end(leg);
  if (!spans_path.empty()) {
    if (spans.write(spans_path))
      std::fprintf(stderr, "  spans: %zu written to %s\n", spans.size(), spans_path.c_str());
    else
      std::fprintf(stderr, "  spans: cannot write %s\n", spans_path.c_str());
  }
  return finish_run(outcome, m);
}

/// The old baselines' settings through the workload definitions.
int legacy_main() {
  // BENCH_parallel.json: par-n32-real at seed 77, 2 s virtual.
  WorkloadRun par(*find_workload("par-n32-real"), 77);
  par.cluster().run_for(sim::seconds(2));
  // BENCH_table1.json n13/load_failures: subnet-n13-wan at seed 1234 + 13,
  // 30 s virtual, generators running for exactly the window.
  const sim::Duration window = sim::seconds(30);
  WorkloadRun sub(*find_workload("subnet-n13-wan"), 1247);
  sub.stop_generating_at(window);
  sub.cluster().run_for(window);
  const auto& m = sub.cluster().sim().network().metrics();
  double sum = 0;
  size_t live = 0;
  for (size_t i = 0; i < m.bytes_sent.size(); ++i) {
    if (m.bytes_sent[i] == 0) continue;
    sum += static_cast<double>(m.bytes_sent[i]) * 8.0 / 1e6 / sim::to_sec(window);
    live++;
  }
  std::printf("{\"parallel\": {\"threads\": %zu, \"blocks\": %zu, \"provider_verifications\": %llu, \"total_messages\": %llu}, "
              "\"table1\": {\"blocks_per_s\": %.6f, \"mbps_per_node\": %.6f}}\n",
              find_workload("par-n32-real")->threads, par.cluster().min_honest_committed(),
              static_cast<unsigned long long>(par.cluster().verifier_stats().provider_verifications),
              static_cast<unsigned long long>(par.cluster().sim().network().metrics().total_messages.load()),
              sub.cluster().blocks_per_second(window), live ? sum / static_cast<double>(live) : 0.0);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "icc_perfbench: %s\nusage: icc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] | --legacy\nworkloads:",
               why);
  for (const WorkloadSpec& s : workloads()) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--legacy")) return legacy_main();
    if (!std::strcmp(argv[i], "--workload")) workload = value();
    else if (!std::strcmp(argv[i], "--seed")) seed = std::atoll(value());
    else if (!std::strcmp(argv[i], "--seconds")) seconds = std::atof(value());
    else if (!std::strcmp(argv[i], "--trace")) trace = std::atoi(value());
    else if (!std::strcmp(argv[i], "--spans")) spans_path = value();
    else usage((std::string("unknown argument ") + argv[i]).c_str());
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1))
    usage("--seed, --seconds and --trace 0|1 are required");
  const auto s = static_cast<uint64_t>(seed);
  return trace == 0 ? untraced_main(*spec, s, seconds) : traced_main(*spec, s, seconds, spans_path);
}
