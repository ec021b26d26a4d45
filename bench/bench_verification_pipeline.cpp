// Staged ingress pipeline: real-crypto cost of a committed block with the
// dedup + memoization stages on vs off (DESIGN.md, "Staged ingress
// pipeline").
//
// Signature verification dominates BFT CPU budgets; in a committee of n
// every artifact is verified once per receiving party, and the echo-heavy
// dissemination of ICC means the same bytes arrive many times. The pipeline
// attacks this three ways: exact duplicates die on a hash before any crypto,
// repeated verifications of the same artifact are answered from a bounded
// verdict cache (own signatures are primed at signing time), and combines
// trust the pre-verified pool instead of checking every share a second
// time. This bench measures the end-to-end effect under the real
// Ed25519/DVRF provider at n = 16.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/cluster.hpp"

namespace {
using namespace icc;

// --threads N (0 = ICC_THREADS/default). Every count below comes from
// virtual time, so only the wall-clock rows may move with N.
size_t g_threads = 0;
// --intern on|off (default on): cluster-shared artifact interning
// (DESIGN.md §7). Off models per-replica CPU honestly; on shows the
// cluster-wide cost. The per-party (logical) counters are identical
// either way — only the intern rows and wall clock move.
bool g_intern = true;

struct RunResult {
  size_t committed = 0;
  pipeline::Verifier::Stats verifier;
  pipeline::PipelineStats ingress;
  pipeline::InternStore::Stats intern;
  double wall_s = 0;
};

RunResult run(bool stages_on, sim::Duration sim_time) {
  harness::ClusterOptions o;
  o.n = 16;
  o.t = 5;
  o.seed = 42;
  o.crypto = harness::CryptoKind::kReal;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 512;
  o.record_payloads = false;
  o.prune_lag = 8;
  o.threads = g_threads;
  o.intern = g_intern;
  o.pipeline.stages = stages_on;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };

  auto t0 = std::chrono::steady_clock::now();
  harness::Cluster c(o);
  c.run_for(sim_time);
  auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.committed = c.min_honest_committed();
  r.verifier = c.verifier_stats();
  r.ingress = c.pipeline_stats();
  r.intern = c.intern_stats();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Real crypto is slow; keep the simulated window short but long enough
  // for a stable per-block cost. Override via the first positional
  // argument (seconds); `--threads N` sizes the worker pool.
  int sim_seconds = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      g_threads = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--intern") == 0 && i + 1 < argc)
      g_intern = std::strcmp(argv[++i], "off") != 0;
    else
      sim_seconds = std::atoi(argv[i]);
  }
  std::printf("Verification pipeline (ICC0, n = 16, t = 5, real Ed25519/DVRF, %d s sim, intern %s)\n"
              "=========================================================================\n\n",
              sim_seconds, g_intern ? "on" : "off");

  RunResult off = run(false, sim::seconds(sim_seconds));
  RunResult on = run(true, sim::seconds(sim_seconds));

  auto per_block = [](const RunResult& r) {
    return r.committed ? static_cast<double>(r.verifier.provider_verifications) /
                             static_cast<double>(r.committed)
                       : 0.0;
  };

  std::printf("%-34s | %12s | %12s\n", "", "stages off", "stages on");
  std::printf("%-34s | %12zu | %12zu\n", "blocks committed (min honest)", off.committed,
              on.committed);
  std::printf("%-34s | %12llu | %12llu\n", "provider (real) verifications",
              (unsigned long long)off.verifier.provider_verifications,
              (unsigned long long)on.verifier.provider_verifications);
  std::printf("%-34s | %12.0f | %12.0f\n", "  ...per committed block", per_block(off),
              per_block(on));
  std::printf("%-34s | %12llu | %12llu\n", "cache hits",
              (unsigned long long)off.verifier.cache_hits,
              (unsigned long long)on.verifier.cache_hits);
  std::printf("%-34s | %12llu | %12llu\n", "verdicts primed at sign time",
              (unsigned long long)off.verifier.primed,
              (unsigned long long)on.verifier.primed);
  std::printf("%-34s | %12llu | %12llu\n", "duplicates dropped pre-crypto",
              (unsigned long long)off.ingress.duplicates,
              (unsigned long long)on.ingress.duplicates);
  std::printf("%-34s | %12llu | %12llu\n", "intern: real verifications",
              (unsigned long long)off.intern.real_verifications,
              (unsigned long long)on.intern.real_verifications);
  std::printf("%-34s | %12llu | %12llu\n", "intern: parses",
              (unsigned long long)off.intern.parses,
              (unsigned long long)on.intern.parses);
  std::printf("%-34s | %9.1f s  | %9.1f s\n", "wall clock", off.wall_s, on.wall_s);

  double speedup = per_block(on) > 0 ? per_block(off) / per_block(on) : 0;
  std::printf("\nreal verifications per committed block: %.0fx fewer with the pipeline\n",
              speedup);
  std::printf("wall-clock: %.2fx faster\n", on.wall_s > 0 ? off.wall_s / on.wall_s : 0);
  if (speedup < 2.0) {
    std::printf("WARNING: expected >= 2x reduction\n");
    return 1;
  }
  return 0;
}
