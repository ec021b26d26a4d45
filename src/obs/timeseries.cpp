#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/runtime.hpp"  // proc_rss_kb
#include "support/bytes.hpp"
#include "support/defer.hpp"
#include "support/json.hpp"

namespace icc::obs {

// The icc-series/v1 record types. Histogram buckets and overflow are
// in-memory only (decimation re-resolves percentiles from them).
template <class Io>
void json_fields(Io& io, SeriesMeta& m) {
  io.tag("type", "meta");
  io.tag("schema", SeriesMeta::kSchema);
  io.field("n", m.n);
  io.field("t", m.t);
  io.field("protocol", m.protocol);
  io.field("seed", m.seed);
  io.field("window_us", m.window_us);
  io.field("full_res", m.full_res);
  io.field("wall", m.wall);
  io.field("corrupt", m.corrupt);
}

template <class Io>
void json_fields(Io& io, SeriesHist& h) {
  io.field("count", h.count);
  io.field("sum", h.sum);
  io.field("p50", h.p50);
  io.field("p90", h.p90);
  io.field("p99", h.p99);
  io.field("max_le", h.max_le);
}

template <class Io>
void json_fields(Io& io, SeriesWindow& w) {
  io.tag("type", "w");
  io.field("seq", w.seq);
  io.field("start_us", w.start_us);
  io.field("end_us", w.end_us);
  io.field("res", w.res);
  io.field("rounds", w.rounds);
  io.field("leader_block", w.leader_block);
  io.field("clean", w.clean);
  io.field("honest_leader", w.honest_leader);
  io.field("corrupt_leader", w.corrupt_leader);
  io.field("leaders", w.leaders);
  io.field("counters", w.counters);
  io.field("gauges", w.gauges);
  io.field("hist", w.hists);
}

template <class Io>
void json_fields(Io& io, SeriesWall& w) {
  io.tag("type", "wall");
  io.field("seq", w.seq);
  io.field("rss_kb", w.rss_kb);
  io.field("peak_rss_kb", w.peak_rss_kb);
  io.field("dropped", w.dropped);
}

TimeSeries::TimeSeries(Registry* registry, SeriesConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (config_.window_us <= 0) config_.window_us = 1'000'000;
  // Decimation merges exactly 10 windows at a time; a tiny full_res would
  // leave the level unable to shed windows.
  config_.full_res = std::max<uint64_t>(config_.full_res, 16);
  meta_.window_us = config_.window_us;
  meta_.full_res = config_.full_res;
  meta_.wall = config_.wall;
  levels_.emplace_back();
}

bool TimeSeries::open_stream(const std::string& path) {
  stream_.open(path, std::ios::binary | std::ios::trunc);
  if (!stream_) return false;
  stream_ << meta_json() << "\n";
  return static_cast<bool>(stream_);
}

void TimeSeries::flush() {
  if (stream_.is_open()) stream_.flush();
}

void TimeSeries::on_round(uint64_t round, uint32_t leader, bool honest, bool leader_block,
                          bool clean) {
  // Shared tallies mutate non-commutatively (first report of a round wins),
  // so the update rides the defer queue to the canonical replay point —
  // exactly the Gauge::set discipline.
  if (support::DeferQueue::maybe_defer([this, round, leader, honest, leader_block, clean] {
        on_round_in_order(round, leader, honest, leader_block, clean);
      }))
    return;
  on_round_in_order(round, leader, honest, leader_block, clean);
}

void TimeSeries::on_round_in_order(uint64_t round, uint32_t leader, bool honest,
                                   bool leader_block, bool clean) {
  // Every honest party reports each round; count it once. The set is pruned
  // well behind the frontier (parties lag by at most the prune/CUP bounds).
  if (!seen_rounds_.insert(round).second) return;
  while (!seen_rounds_.empty() && *seen_rounds_.begin() + 256 < *seen_rounds_.rbegin())
    seen_rounds_.erase(seen_rounds_.begin());
  open_rounds_++;
  open_leaders_[leader]++;
  if (leader_block) open_leader_block_++;
  if (clean) open_clean_++;
  (honest ? open_honest_ : open_corrupt_)++;
}

void TimeSeries::on_boundary(int64_t boundary_us) {
  close_window(boundary_us);
  decimate();
}

void TimeSeries::close_window(int64_t boundary_us) {
  SeriesWindow w;
  w.seq = next_seq_++;
  w.start_us = last_boundary_;
  w.end_us = boundary_us;
  last_boundary_ = boundary_us;

  w.rounds = open_rounds_;
  w.leader_block = open_leader_block_;
  w.clean = open_clean_;
  w.honest_leader = open_honest_;
  w.corrupt_leader = open_corrupt_;
  w.leaders.assign(open_leaders_.begin(), open_leaders_.end());
  open_rounds_ = open_leader_block_ = open_clean_ = open_honest_ = open_corrupt_ = 0;
  open_leaders_.clear();

  // Counter deltas against the previous boundary. Names registered mid-run
  // diff against an implicit 0; zero deltas are omitted to keep lines lean.
  registry_->visit_counters([&](const std::string& name, const Counter& c) {
    const uint64_t cur = c.value();
    uint64_t& prev = prev_counters_[name];
    if (cur != prev) w.counters.emplace_back(name, cur - prev);
    prev = cur;
  });

  registry_->visit_gauges([&](const std::string& name, const Gauge& g) {
    w.gauges.emplace_back(name, g.value());
  });

  // Windowed histograms: cumulative snapshot diffing, never a reset — the
  // final metrics snapshot is byte-identical with the recorder on or off.
  for (const std::string& name : config_.hist_names) {
    const Histogram* h = registry_->find_histogram(name);
    if (h == nullptr) continue;
    const std::vector<uint64_t> cur = h->bucket_counts();
    HistPrev& prev = prev_hists_[name];
    if (prev.buckets.size() != cur.size()) prev.buckets.assign(cur.size(), 0);
    SeriesHist sh;
    sh.count = h->count() - prev.count;
    sh.sum = h->sum() - prev.sum;
    sh.overflow = h->overflow() - prev.overflow;
    sh.buckets.resize(cur.size());
    for (size_t i = 0; i < cur.size(); ++i) sh.buckets[i] = cur[i] - prev.buckets[i];
    prev.buckets = cur;
    prev.overflow = h->overflow();
    prev.count = h->count();
    prev.sum = h->sum();
    if (sh.count == 0) continue;
    resolve_hist(&sh, h->bounds());
    w.hists.emplace_back(name, std::move(sh));
  }

  if (stream_.is_open()) {
    stream_ << window_json(w) << "\n";
    if (!stream_) dropped_++;
  }
  if (config_.wall) {
    SeriesWall ws;
    ws.seq = w.seq;
    proc_rss_kb(&ws.rss_kb, &ws.peak_rss_kb);
    ws.dropped = dropped_;
    if (stream_.is_open()) {
      stream_ << wall_json(ws) << "\n";
      if (!stream_) dropped_++;
    }
    wall_.push_back(ws);
    while (wall_.size() > (size_t{1} << 16)) wall_.pop_front();
  }
  levels_[0].push_back(std::move(w));
}

void TimeSeries::resolve_hist(SeriesHist* h, const std::vector<int64_t>& bounds) {
  const uint64_t total = h->count;
  if (total == 0) return;
  auto pct = [&](double q) -> int64_t {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total) + 0.999999);
    rank = std::max<uint64_t>(1, std::min(rank, total));
    uint64_t seen = 0;
    for (size_t i = 0; i < h->buckets.size() && i < bounds.size(); ++i) {
      seen += h->buckets[i];
      if (seen >= rank) return bounds[i];
    }
    return bounds.empty() ? 0 : bounds.back();  // rank in the overflow bucket
  };
  h->p50 = pct(0.50);
  h->p90 = pct(0.90);
  h->p99 = pct(0.99);
  h->max_le = 0;
  for (size_t i = 0; i < h->buckets.size() && i < bounds.size(); ++i)
    if (h->buckets[i] != 0) h->max_le = bounds[i];
  if (h->overflow != 0 && !bounds.empty()) h->max_le = bounds.back();
}

void TimeSeries::decimate() {
  for (size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    while (levels_[lvl].size() > config_.full_res) {
      SeriesWindow merged = merge_windows(levels_[lvl], 10);
      if (lvl + 1 == levels_.size()) levels_.emplace_back();
      levels_[lvl + 1].push_back(std::move(merged));
    }
  }
}

SeriesWindow TimeSeries::merge_windows(std::deque<SeriesWindow>& level, size_t count) {
  count = std::min(count, level.size());
  SeriesWindow out = std::move(level.front());
  level.pop_front();
  std::map<std::string, uint64_t> counters(out.counters.begin(), out.counters.end());
  std::map<uint32_t, uint64_t> leaders(out.leaders.begin(), out.leaders.end());
  std::map<std::string, SeriesHist> hists;
  for (auto& [name, h] : out.hists) hists.emplace(name, std::move(h));

  for (size_t k = 1; k < count; ++k) {
    SeriesWindow w = std::move(level.front());
    level.pop_front();
    out.end_us = w.end_us;
    out.res += w.res;
    out.rounds += w.rounds;
    out.leader_block += w.leader_block;
    out.clean += w.clean;
    out.honest_leader += w.honest_leader;
    out.corrupt_leader += w.corrupt_leader;
    for (auto& [p, c] : w.leaders) leaders[p] += c;
    for (auto& [name, v] : w.counters) counters[name] += v;
    out.gauges = std::move(w.gauges);  // gauge = instantaneous: newest wins
    for (auto& [name, h] : w.hists) {
      auto it = hists.find(name);
      if (it == hists.end()) {
        hists.emplace(name, std::move(h));
        continue;
      }
      SeriesHist& dst = it->second;
      dst.count += h.count;
      dst.sum += h.sum;
      dst.overflow += h.overflow;
      if (dst.buckets.size() < h.buckets.size()) dst.buckets.resize(h.buckets.size(), 0);
      for (size_t i = 0; i < h.buckets.size(); ++i) dst.buckets[i] += h.buckets[i];
    }
  }
  out.counters.assign(counters.begin(), counters.end());
  out.leaders.assign(leaders.begin(), leaders.end());
  out.hists.clear();
  for (auto& [name, h] : hists) {
    const Histogram* live = registry_->find_histogram(name);
    if (live != nullptr) resolve_hist(&h, live->bounds());
    out.hists.emplace_back(name, std::move(h));
  }
  return out;
}

std::vector<const SeriesWindow*> TimeSeries::windows() const {
  std::vector<const SeriesWindow*> out;
  // Higher levels hold strictly older data (merges always take the oldest),
  // so deepest-first front-to-back is time order.
  for (size_t lvl = levels_.size(); lvl-- > 0;)
    for (const SeriesWindow& w : levels_[lvl]) out.push_back(&w);
  return out;
}

std::string TimeSeries::meta_json() const { return json::write(meta_); }

std::string TimeSeries::window_json(const SeriesWindow& w) { return json::write(w); }

std::string TimeSeries::wall_json(const SeriesWall& w) { return json::write(w); }

std::string TimeSeries::to_jsonl() const {
  std::string out = meta_json() + "\n";
  for (const SeriesWindow* w : windows()) out += window_json(*w) + "\n";
  if (config_.wall)
    for (const SeriesWall& ws : wall_) out += wall_json(ws) + "\n";
  return out;
}

bool TimeSeries::write_jsonl(const std::string& path) const {
  return write_file(path, to_jsonl());
}

TimeSeries::Parsed TimeSeries::parse_jsonl(const std::string& text) {
  Parsed out;
  json::for_each_object_line(text, [&](const json::Value& v) {
    const std::string_view type = v.text("type");
    if (type == "meta") {
      json::read(v, out.meta);
      out.has_meta = true;
    } else if (type == "w") {
      json::read(v, out.windows.emplace_back());
    } else if (type == "wall") {
      json::read(v, out.wall.emplace_back());
    }
  });
  return out;
}

}  // namespace icc::obs
