#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "consensus/config.hpp"

namespace perfbench {

using namespace icc;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // Virtual warm-ups and spans: each warm-up takes about 1 s of wall time
    // on a 4-vCPU host, and each span ends well inside a 12 s window there
    // (soak ~3,000 of ~20,000 blocks, par ~100 of ~200, subnet ~55 of ~90,
    // icc2 ~100 of ~180).
    WorkloadSpec soak;  // examples/icc_soak defaults
    soak.name = "soak-n4-fast";
    soak.warm_up_until = sim::seconds(20);
    soak.virt_span = sim::seconds(60);
    v.push_back(soak);

    WorkloadSpec par;  // bench_latency_throughput --parallel (F-PAR)
    par.name = "par-n32-real";
    par.n = 32;
    par.t = 10;
    par.crypto = harness::CryptoKind::kReal;
    // Two executor threads, not four: on the shared 4-vCPU host, four
    // barrier-synchronized threads drew 2-4x the CPU steal and spread
    // 25-70 % run to run in blocks_per_s; two spread 8-10 %.
    par.threads = 2;
    par.prune_lag = 8;
    par.warm_up_until = sim::msec(500);
    par.virt_span = sim::seconds(2);
    v.push_back(par);

    WorkloadSpec subnet;  // bench_table1, n = 13, "load + failures"
    subnet.name = "subnet-n13-wan";
    subnet.protocol = harness::Protocol::kIcc1;
    subnet.n = 13;
    subnet.t = 4;
    subnet.payload_size = 0;
    subnet.delta_ms = 0;
    subnet.prune_lag = 8;
    subnet.subnet = true;
    subnet.committed_history = 16;  // payloads are ~300 KB
    subnet.warm_up_until = sim::seconds(10);
    subnet.virt_span = sim::seconds(80);
    // One fixed subnet: bench_table1's n = 13 deployment (its seed 1234 + n).
    // With 4 of 13 leaders crashed, a per-seed beacon would make the share
    // of slow rounds, and so every per-block figure, vary by seed.
    subnet.deployment_seed = 1234 + 13;
    subnet.epsilon = sim::msec(800);
    subnet.delta_bnd = sim::msec(900);
    v.push_back(subnet);

    WorkloadSpec icc2;
    icc2.name = "icc2-n13-rbc";
    icc2.protocol = harness::Protocol::kIcc2;
    icc2.n = 13;
    icc2.t = 4;
    icc2.payload_size = 64 * 1024;
    icc2.warm_up_until = sim::msec(500);
    icc2.virt_span = sim::seconds(3);
    v.push_back(icc2);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workloads())
    if (s.name == name) return &s;
  return nullptr;
}

double Window::delta(const std::string& key) const {
  auto b = begin.registry.find(key);
  auto e = end.registry.find(key);
  if (e == end.registry.end()) return 0;
  return e->second - (b == begin.registry.end() ? 0 : b->second);
}

// --- injection-point decorators ---------------------------------------------

/// payload_factory decorator of the traced run: times each payload build.
/// Parallel runs build concurrently; on_build locks.
class WorkloadRun::TimedPayload final : public consensus::PayloadBuilder {
 public:
  TimedPayload(WorkloadRun* run, std::shared_ptr<consensus::PayloadBuilder> inner)
      : run_(run), inner_(std::move(inner)) {}
  Bytes build(consensus::Round round, consensus::PartyIndex proposer,
              const std::vector<const types::Block*>& chain) override {
    const double t0 = wall_s();
    Bytes out = inner_->build(round, proposer, chain);
    run_->on_build((wall_s() - t0) * 1e6);
    return out;
  }

 private:
  WorkloadRun* run_;
  std::shared_ptr<consensus::PayloadBuilder> inner_;
};

/// delay_model decorator: counts wire sizes per sender (each sender's sends
/// run on one thread at a time, so per-sender maps need no lock).
class WorkloadRun::CountingDelay final : public sim::DelayModel {
 public:
  CountingDelay(std::unique_ptr<sim::DelayModel> inner,
                std::vector<std::unique_ptr<std::map<size_t, uint64_t>>>* counts)
      : inner_(std::move(inner)), counts_(counts) {}
  sim::Duration delay(sim::PartyIndex from, sim::PartyIndex to, sim::Time now, size_t bytes,
                      Xoshiro256& rng) override {
    ++(*(*counts_)[from])[bytes];
    return inner_->delay(from, to, now, bytes, rng);
  }

 private:
  std::unique_ptr<sim::DelayModel> inner_;
  std::vector<std::unique_ptr<std::map<size_t, uint64_t>>>* counts_;
};

// --- construction -------------------------------------------------------------

WorkloadRun::WorkloadRun(const WorkloadSpec& spec, uint64_t seed, SpanLog* spans,
                         const std::vector<uint32_t>& extra_crashes)
    : spec_(spec), spans_(spans), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
  const bool traced = spans != nullptr;
  SpanScope span(spans_, "harness.setup");
  harness::ClusterOptions o;
  o.n = spec.n;
  o.t = spec.t;
  o.protocol = spec.protocol;
  o.crypto = spec.crypto;
  o.seed = spec.deployment_seed != 0 ? spec.deployment_seed : seed;
  o.threads = spec.threads;
  o.prune_lag = spec.prune_lag;
  o.committed_history = spec.committed_history;
  o.delta_bnd = spec.delta_bnd;
  o.epsilon = spec.epsilon;
  o.payload_size = spec.payload_size;
  o.record_payloads = spec.subnet;  // replicas apply the command batches
  o.record_latencies = true;

  if (traced) {
    o.obs.enabled = true;
    o.obs.trace_capacity = 0;  // the virtual-time span ring is not used here
    o.obs.stage_wall_timing = true;
    o.obs.runtime = true;
  }

  const int delta_ms = spec.delta_ms;
  auto base_model = [delta_ms](size_t n, uint64_t s) -> std::unique_ptr<sim::DelayModel> {
    if (delta_ms > 0) return std::make_unique<sim::FixedDelay>(sim::msec(delta_ms));
    sim::WanDelay::Config wan;
    wan.n = n;
    wan.seed = s;
    wan.loss_probability = 0.0005;
    return std::make_unique<sim::WanDelay>(wan);
  };
  if (traced) {
    for (size_t i = 0; i < spec.n; ++i)
      wire_sizes_.push_back(std::make_unique<std::map<size_t, uint64_t>>());
    o.delay_model = [this, base_model](size_t n, uint64_t s) {
      return std::unique_ptr<sim::DelayModel>(
          std::make_unique<CountingDelay>(base_model(n, s), &wire_sizes_));
    };
  } else {
    o.delay_model = base_model;
  }

  if (spec.subnet) {
    SpanScope inputs(spans_, "harness.inputs");
    queues_.resize(spec.n);
    replicas_.resize(spec.n);
    for (size_t i = 0; i < spec.n; ++i) {
      queues_[i] = std::make_shared<smr::CommandQueue>();
      replicas_[i] = std::make_shared<smr::Replica>(queues_[i], std::make_shared<smr::KvStore>());
    }
    for (size_t i = 0; i < spec.n / 3; ++i)
      o.corrupt.emplace_back(static_cast<sim::PartyIndex>(3 * i + 2), harness::Crashed{});
  }
  for (uint32_t slot : extra_crashes)
    o.corrupt.emplace_back(static_cast<sim::PartyIndex>(slot), harness::Crashed{});

  const size_t payload_size = spec.payload_size;
  o.payload_factory = [this, payload_size, traced](sim::PartyIndex i) {
    std::shared_ptr<consensus::PayloadBuilder> builder;
    if (!queues_.empty())
      builder = queues_[i];
    else
      builder = std::make_shared<consensus::FixedSizePayload>(payload_size);
    if (traced) builder = std::make_shared<TimedPayload>(this, std::move(builder));
    return builder;
  };
  o.on_commit = [this](sim::PartyIndex self, const consensus::CommittedBlock& b) {
    on_commit(self, b);
  };

  {
    SpanScope ctor(spans_, "harness.Cluster");
    cluster_ = std::make_unique<harness::Cluster>(o);
  }
  if (spec.subnet) {
    sim::Engine& engine = cluster_->sim().engine();
    engine.schedule_at(0, [this] { pump_management(); });
    engine.schedule_at(0, [this] { pump_load(); });
  }
}

WorkloadRun::~WorkloadRun() = default;

// --- inputs (subnet-n13-wan) ----------------------------------------------------

namespace {

/// A KvStore put of exactly `size` wire bytes with a seeded key from a
/// bounded key space (puts overwrite, so replica state stays bounded).
smr::Command seeded_put(uint64_t id, size_t size, uint64_t key_space, Xoshiro256& rng) {
  char key[24];
  const int klen =
      std::snprintf(key, sizeof key, "k%06llu", static_cast<unsigned long long>(rng() % key_space));
  std::string value(size - 3 - static_cast<size_t>(klen), '\0');
  for (size_t i = 0; i < value.size(); i += 8) {
    uint64_t r = rng();
    for (size_t j = 0; j < 8 && i + j < value.size(); ++j) value[i + j] = static_cast<char>(r >> (8 * j));
  }
  return smr::KvStore::put(id, std::string_view(key, static_cast<size_t>(klen)), value);
}

}  // namespace

// Table 1 load: 48 KB of management data every 500 ms and 10 x 1 KB client
// requests every 100 ms, submitted to every honest replica (ingress is
// gossiped subnet-wide; a crashed party never builds a payload, so its queue
// would only grow). Each command is due when submitted. The generators
// reschedule while virtual time is before generate_until_, exactly like
// bench_table1's pumps do against their window.
void WorkloadRun::submit(const smr::Command& cmd) {
  due_[cmd.id] = cluster_->sim().engine().now();
  ++submitted_;
  for (size_t i = 0; i < replicas_.size(); ++i)
    if (cluster_->is_honest(i)) replicas_[i]->submit(cmd);
}

void WorkloadRun::pump_management() {
  sim::Engine& engine = cluster_->sim().engine();
  submit(seeded_put(next_id_++, 48 * 1024, 16, rng_));
  if (engine.now() < generate_until_)
    engine.schedule_after(sim::msec(500), [this] { pump_management(); });
}

void WorkloadRun::pump_load() {
  sim::Engine& engine = cluster_->sim().engine();
  for (int i = 0; i < 10; ++i) submit(seeded_put(next_id_++, 1024, 1024, rng_));
  if (engine.now() < generate_until_)
    engine.schedule_after(sim::msec(100), [this] { pump_load(); });
}

// --- hooks --------------------------------------------------------------------

void WorkloadRun::on_build(double wall_us) {
  std::lock_guard<std::mutex> lk(build_mu_);
  build_us.push_back(wall_us);
}

// Runs on the coordinating thread (the harness defers commit callbacks out
// of parallel batches), so window state needs no lock.
void WorkloadRun::on_commit(sim::PartyIndex self, const consensus::CommittedBlock& b) {
  const double t0 = spans_ ? wall_s() : 0;
  if (!replicas_.empty()) replicas_[self]->on_commit(b);
  if (self == 0) {
    ++party0_blocks_;
    if (spec_.subnet) {
      if (auto cmds = smr::decode_payload(b.payload)) {
        for (const smr::Command& c : *cmds) {
          auto it = due_.find(c.id);
          if (it == due_.end()) continue;
          if (span_open_) window_->request_ms.push_back(sim::to_ms(b.committed_at - it->second));
          due_.erase(it);
          ++committed_commands_;
        }
      }
      if (spans_) sample_payload_ = b.payload;
    } else {
      p0_committed_at_[b.round] = b.committed_at;
    }
    if (window_open_) {
      const double now = wall_s();
      if (last_commit_wall_ >= 0) window_->commit_gap_ms.push_back((now - last_commit_wall_) * 1e3);
      last_commit_wall_ = now;
      window_->payload_bytes += b.payload_size;
    }
  }
  // Closed loop: the "request" is the block payload, due when its proposal
  // went out. The harness appends b's latency sample (proposal -> last honest
  // commit, which is this one) just before calling on_commit.
  const auto& lat = cluster_->latencies();
  if (!spec_.subnet && lat.size() > latencies_seen_) {
    latencies_seen_ = lat.size();
    const Time proposed = b.committed_at - lat.back().propose_to_commit;
    auto it = p0_committed_at_.find(b.round);
    if (it != p0_committed_at_.end() && span_open_)
      window_->request_ms.push_back(sim::to_ms(it->second - proposed));
    p0_committed_at_.erase(p0_committed_at_.begin(), p0_committed_at_.upper_bound(b.round));
  }
  if (spans_) apply_us.push_back((wall_s() - t0) * 1e6);
}

// --- driving ------------------------------------------------------------------

Snapshot WorkloadRun::snapshot() {
  Snapshot s;
  s.wall = wall_s();
  s.cpu = cpu_s();
  s.virt = cluster_->sim().engine().now();
  s.blocks = party0_blocks_;
  const auto& nm = cluster_->sim().network().metrics();
  s.wire_msgs = nm.total_messages.load();
  s.wire_bytes = nm.total_bytes.load();
  s.latencies = cluster_->latencies().size();
  if (spans_) {
    s.pipe = cluster_->pipeline_stats();
    s.verify = cluster_->verifier_stats();
    s.intern = cluster_->intern_stats();
    if (obs::Obs* o = cluster_->obs()) {
      const obs::Registry& r = o->registry();
      r.visit_counters([&](const std::string& name, const obs::Counter& c) {
        s.registry[name] = static_cast<double>(c.value());
      });
      for (const char* h : {"pipeline.decode_wall_ns", "pipeline.verify_wall_ns",
                            "consensus.finalize_gap_rounds"}) {
        if (const obs::Histogram* hist = r.find_histogram(h)) {
          s.registry[std::string(h) + ".sum"] = static_cast<double>(hist->sum());
          s.registry[std::string(h) + ".count"] = static_cast<double>(hist->count());
        }
      }
    }
  }
  return s;
}

void WorkloadRun::run_chunk(Time until) {
  SpanScope span(spans_, "sim.run_until");
  cluster_->run_until(until);
}

void WorkloadRun::warm_up() {
  SpanScope span(spans_, "bench.warm_up");
  sim::Engine& engine = cluster_->sim().engine();
  const double t0 = wall_s();
  const Time v0 = engine.now();
  while (engine.now() < spec_.warm_up_until)
    run_chunk(std::min(spec_.warm_up_until, engine.now() + sim::msec(5)));
  // Size chunks at ~20 ms of wall each: short enough that the last one
  // overshoots the budget little, long enough that the loop costs nothing.
  const double rate = sim::to_sec(engine.now() - v0) / std::max(1e-3, wall_s() - t0);
  chunk_ = std::max<Duration>(sim::msec(1), static_cast<Duration>(rate * 0.02 * 1e6));
}

Window WorkloadRun::measure(double wall_budget_s, Duration virt_budget) {
  SpanScope span(spans_, "bench.window");
  sim::Engine& engine = cluster_->sim().engine();
  Window w;
  w.begin = snapshot();
  window_ = &w;
  window_open_ = true;
  span_end_ = w.begin.virt + (virt_budget > 0 ? virt_budget : spec_.virt_span);
  span_open_ = true;
  last_commit_wall_ = -1;
  while (window_open_ || span_open_) {
    const Time now = engine.now();
    if (window_open_ && (virt_budget > 0 ? now >= span_end_ : wall_s() - w.begin.wall >= wall_budget_s)) {
      window_open_ = false;
      w.end = snapshot();
    }
    if (span_open_ && now >= span_end_) {
      span_open_ = false;
      w.span_end = snapshot();
      w.peak_rss_mb = peak_rss_mb();
    }
    if (!window_open_ && !span_open_) break;
    run_chunk(span_open_ ? std::min(span_end_, now + chunk_) : now + chunk_);
    if (window_open_) w.rss.emplace_back(static_cast<double>(party0_blocks_), rss_mb());
  }
  window_ = nullptr;
  const auto& lat = cluster_->latencies();
  for (size_t i = w.begin.latencies; i < w.span_end.latencies; ++i)
    w.virt_latency_ms.push_back(sim::to_ms(lat[i].propose_to_commit));
  return w;
}

uint64_t WorkloadRun::step_segment(double wall_budget_s, std::vector<double>& step_us,
                                   uint64_t& steps) {
  SpanScope span(spans_, "sim.Engine::step");
  sim::Engine& engine = cluster_->sim().engine();
  const uint64_t b0 = party0_blocks_;
  const double t0 = wall_s();
  steps = 0;
  while (wall_s() - t0 < wall_budget_s) {
    for (int i = 0; i < 256; ++i) {
      const double s0 = wall_s();
      if (!engine.step()) return party0_blocks_ - b0;
      step_us.push_back((wall_s() - s0) * 1e6);
      ++steps;
    }
  }
  span.set_count(steps);
  return party0_blocks_ - b0;
}

Outcome WorkloadRun::finish() {
  SpanScope span(spans_, "bench.finish");
  Outcome out;
  harness::Cluster& c = *cluster_;
  sim::Engine& engine = c.sim().engine();
  const consensus::Icc0Party* p0 = c.party(0);
  const consensus::Round round_at_end = p0->current_round();

  if (spec_.subnet) {
    // Open loop: stop generating and let every submitted command commit.
    generate_until_ = engine.now();
    const Time cap = engine.now() + sim::seconds(60);
    while (!due_.empty() && engine.now() < cap) run_chunk(engine.now() + sim::msec(500));
    // Replica states are comparable only at equal heights: step on until
    // every honest party has committed the same number of blocks.
    auto heights_differ = [&] {
      uint64_t lo = UINT64_MAX, hi = 0;
      for (size_t i = 0; i < spec_.n; ++i) {
        if (!c.is_honest(i)) continue;
        lo = std::min<uint64_t>(lo, c.party(i)->committed_total());
        hi = std::max<uint64_t>(hi, c.party(i)->committed_total());
      }
      return lo != hi;
    };
    while (heights_differ() && engine.now() < cap) run_chunk(engine.now() + sim::msec(20));
    out.attempted = submitted_;
    out.failed = submitted_ - committed_commands_;
  } else {
    // Closed loop: every round entered so far must commit at every honest
    // party. Drain ten rounds' worth of virtual time.
    const double per_block =
        party0_blocks_ > 0 ? static_cast<double>(engine.now()) / static_cast<double>(party0_blocks_)
                           : static_cast<double>(spec_.delta_bnd);
    run_chunk(engine.now() + std::max<Duration>(sim::msec(100), static_cast<Duration>(10 * per_block)));
    out.attempted = std::max<uint64_t>(1, round_at_end);
    const uint64_t done = std::min<uint64_t>(out.attempted, c.min_honest_committed());
    out.failed = out.attempted - done;
  }

  SpanScope checks(spans_, "harness.checks");
  auto problem = [&](const std::optional<std::string>& p) {
    if (p) out.problems.push_back(*p);
  };
  problem(c.check_safety());
  problem(c.check_p2());
  problem(c.check_progress(round_at_end));
  if (spec_.subnet) {
    std::optional<crypto::Sha256Digest> ref;
    for (size_t i = 0; i < spec_.n; ++i) {
      if (!c.is_honest(i)) continue;
      const auto d = replicas_[i]->state().digest();
      if (!ref) ref = d;
      else if (*ref != d)
        out.problems.push_back("KvStore digest differs at replica " + std::to_string(i) + " (height " +
                               std::to_string(c.party(i)->committed_total()) + " vs " +
                               std::to_string(p0->committed_total()) + ")");
    }
  }
  if (spec_.delta_ms > 0) {
    // Fixed delay: ICC0/ICC1 commit in 3 delta, ICC2 in 4 delta (F-LAT).
    std::vector<double> lat;
    for (const auto& s : c.latencies()) lat.push_back(sim::to_ms(s.propose_to_commit));
    const double want = (spec_.protocol == harness::Protocol::kIcc2 ? 4 : 3) * spec_.delta_ms;
    const double got = median(lat);
    if (lat.empty() || std::fabs(got - want) > 1e-9)
      out.problems.push_back("median commit latency " + std::to_string(got) + " ms, expected " +
                             std::to_string(want) + " ms");
  }
  // A violated invariant fails the whole run, not just the late operations.
  if (!out.problems.empty()) out.failed = out.attempted;
  else if (out.failed > 0)
    out.problems.push_back(std::to_string(out.failed) + " operations did not commit");
  out.correct = out.problems.empty();
  return out;
}

std::map<size_t, uint64_t> WorkloadRun::wire_size_counts() const {
  std::map<size_t, uint64_t> all;
  for (const auto& m : wire_sizes_)
    for (const auto& [size, count] : *m) all[size] += count;
  return all;
}

}  // namespace perfbench
