// The four named workloads and the measured run of one of them.
//
// A WorkloadRun owns everything one workload instance needs: the inputs
// generated from the seed (commands, for subnet-n13-wan), the application
// hooks, and the harness::Cluster. The benchmark talks to the cluster only
// through ClusterOptions' injection points (delay_model, payload_factory,
// on_commit), the engine, and the cluster's public stats getters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/cluster.hpp"
#include "measure.hpp"
#include "smr/smr.hpp"

namespace perfbench {

using icc::sim::Duration;
using icc::sim::Time;

struct WorkloadSpec {
  std::string name;
  icc::harness::Protocol protocol = icc::harness::Protocol::kIcc0;
  icc::harness::CryptoKind crypto = icc::harness::CryptoKind::kFast;
  size_t n = 4;
  size_t t = 1;
  size_t payload_size = 256;  ///< fixed payload (closed-loop workloads)
  int delta_ms = 10;          ///< fixed one-way delay; 0 = WAN model
  size_t threads = 1;
  icc::consensus::Round prune_lag = 16;
  /// Committed blocks each party retains (examples/icc_soak's cap), so
  /// memory does not grow with the number of blocks a run commits.
  icc::consensus::Round committed_history = 1024;
  /// Table 1 "load + failures": ICC1 + gossip over WAN, smr replicas fed by
  /// an open-loop command generator, slots 3i+2 crashed.
  bool subnet = false;
  icc::sim::Duration epsilon = 0;
  icc::sim::Duration delta_bnd = icc::sim::msec(300);
  /// Warm-up runs to this virtual time. The measured window starts there;
  /// the virtual-time metrics and peak RSS cover its first virt_span of
  /// virtual time, so they do not depend on how fast the host runs.
  Duration warm_up_until = 0;
  Duration virt_span = 0;
  /// Non-zero: the cluster (keys, beacon, WAN topology, loss and jitter) is
  /// this one fixed deployment, and the run seed drives only the generated
  /// commands. Zero: the run seed is the cluster seed.
  uint64_t deployment_seed = 0;
};

/// The named workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
/// nullptr when unknown.
const WorkloadSpec* find_workload(const std::string& name);

/// Counters read from the cluster at a window boundary.
struct Snapshot {
  double wall = 0, cpu = 0;
  Time virt = 0;
  uint64_t blocks = 0;  ///< party 0 commits
  uint64_t wire_msgs = 0, wire_bytes = 0;
  size_t latencies = 0;
  icc::pipeline::PipelineStats pipe;
  icc::pipeline::Verifier::Stats verify;
  icc::pipeline::InternStore::Stats intern;
  std::map<std::string, double> registry;  ///< obs counters/histogram sums
};

/// What one measured window saw: deltas between snapshots plus samples.
/// The window spans `begin` to `end` in wall time and, for the virtual-time
/// figures, `begin` to `span_end` (a fixed virtual span) in virtual time.
struct Window {
  Snapshot begin, end, span_end;
  std::vector<double> commit_gap_ms;    ///< wall gaps between party-0 commits
  std::vector<double> virt_latency_ms;  ///< span: proposal -> every honest party committed
  std::vector<double> request_ms;       ///< span: command (payload) due -> party-0 commit
  std::vector<std::pair<double, double>> rss;  ///< (party-0 blocks, RSS MB), wall window
  uint64_t payload_bytes = 0;           ///< committed at party 0
  double peak_rss_mb = 0;               ///< at span_end

  double blocks() const { return static_cast<double>(end.blocks - begin.blocks); }
  double wall_s() const { return end.wall - begin.wall; }
  double cpu_s() const { return end.cpu - begin.cpu; }
  double span_blocks() const { return static_cast<double>(span_end.blocks - begin.blocks); }
  double span_virt_s() const { return icc::sim::to_sec(span_end.virt - begin.virt); }
  double delta(const std::string& registry_key) const;
};

/// Operations attempted/failed and the correctness verdict of a run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

class WorkloadRun {
 public:
  /// A null `spans` is the untraced run: telemetry off and no decorator
  /// beyond the on_commit bookkeeping every run needs. A traced run
  /// records spans into `spans`, turns on the opt-in telemetry
  /// (stage_wall_timing, runtime profiler), counts wire sizes in a
  /// delay_model decorator and times payload builds and on_commit calls.
  /// `extra_crashes` adds crashed slots (tests only).
  WorkloadRun(const WorkloadSpec& spec, uint64_t seed, SpanLog* spans = nullptr,
              const std::vector<uint32_t>& extra_crashes = {});
  ~WorkloadRun();
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  icc::harness::Cluster& cluster() { return *cluster_; }

  /// Run to spec.warm_up_until in virtual time.
  void warm_up();
  /// Measure for `wall_budget_s` wall seconds (virt_budget == 0; runs on past
  /// them if spec.virt_span is not covered yet) or for `virt_budget` of
  /// virtual time (both spans end there).
  Window measure(double wall_budget_s, Duration virt_budget = 0);
  /// Drive Engine::step() for `wall_budget_s`, timing each step. Returns
  /// party-0 blocks committed meanwhile.
  uint64_t step_segment(double wall_budget_s, std::vector<double>& step_us,
                        uint64_t& steps);
  /// Stop the generator, run until outstanding operations settle, then run
  /// every correctness check.
  Outcome finish();
  /// The generator submits its last commands at virtual time `t`.
  void stop_generating_at(Time t) { generate_until_ = t; }

  // --- traced-run data ---
  /// Wire sizes seen by the delay model (size incl. frame -> messages).
  std::map<size_t, uint64_t> wire_size_counts() const;
  std::vector<double> build_us, apply_us;
  /// The last payload party 0 committed (replay input).
  const icc::Bytes& sample_payload() const { return sample_payload_; }

  /// Counters of the cluster now.
  Snapshot snapshot();

 private:
  class TimedPayload;
  class CountingDelay;
  void on_commit(icc::sim::PartyIndex self, const icc::consensus::CommittedBlock& b);
  void on_build(double wall_us);
  void submit(const icc::smr::Command& cmd);
  void pump_management();
  void pump_load();
  void run_chunk(Time until);

  WorkloadSpec spec_;
  SpanLog* spans_;
  icc::Xoshiro256 rng_;

  // subnet inputs
  std::vector<std::shared_ptr<icc::smr::CommandQueue>> queues_;
  std::vector<std::shared_ptr<icc::smr::Replica>> replicas_;
  uint64_t next_id_ = 1;
  Time generate_until_ = icc::sim::kTimeMax;
  std::unordered_map<uint64_t, Time> due_;  ///< submitted, not yet committed at party 0
  uint64_t submitted_ = 0, committed_commands_ = 0;

  // closed-loop "request" = a block payload: party-0 commit times of rounds
  // whose latency sample is not complete yet
  std::map<icc::consensus::Round, Time> p0_committed_at_;
  size_t latencies_seen_ = 0;

  std::mutex build_mu_;  ///< guards build_us (parallel builds)

  std::vector<std::unique_ptr<std::map<size_t, uint64_t>>> wire_sizes_;  ///< per sender

  // window bookkeeping (touched on the coordinating thread only)
  bool window_open_ = false;
  Window* window_ = nullptr;
  double last_commit_wall_ = -1;
  uint64_t party0_blocks_ = 0;
  bool span_open_ = false;
  Time span_end_ = 0;
  icc::Bytes sample_payload_;
  Duration chunk_ = icc::sim::msec(5);

  std::unique_ptr<icc::harness::Cluster> cluster_;
};

}  // namespace perfbench
