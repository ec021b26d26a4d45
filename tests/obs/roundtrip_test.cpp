// Round-trip byte tests for every telemetry format: parse an exported
// document with the public reader, re-serialize the parsed records with the
// public writers, and require the exact input bytes back. A field the writer
// emits but the reader drops (or decodes differently) shows up here as a
// byte diff, so export and parse cannot drift apart unnoticed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/cluster.hpp"
#include "obs/journal.hpp"
#include "obs/runtime.hpp"
#include "obs/timeseries.hpp"

namespace icc {
namespace {

harness::ClusterOptions options(size_t n, harness::Protocol proto) {
  harness::ClusterOptions o;
  o.n = n;
  o.t = (n - 1) / 3;
  o.protocol = proto;
  o.seed = 11;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 128;
  o.obs.enabled = true;
  o.obs.journal = true;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  return o;
}

std::string journal_of(const harness::ClusterOptions& o, int seconds) {
  harness::Cluster c(o);
  c.run_for(sim::seconds(seconds));
  return c.journal_jsonl();
}

/// parse_jsonl, then meta_json + event_json per event (seq from 1).
std::string reserialize_journal(const std::string& text) {
  const obs::Journal::Parsed parsed = obs::Journal::parse_jsonl(text);
  EXPECT_TRUE(parsed.has_meta);
  std::string out = obs::Journal::meta_json(parsed.meta, parsed.events.size(),
                                            parsed.meta.dropped) +
                    "\n";
  uint64_t seq = 1;
  for (const obs::JournalEvent& ev : parsed.events)
    out += obs::Journal::event_json(ev, seq++) + "\n";
  return out;
}

TEST(TelemetryRoundTrip, JournalV2Bytes) {
  const std::string text = journal_of(options(7, harness::Protocol::kIcc1), 5);
  ASSERT_NE(text.find(obs::JournalMeta::kSchemaV2), std::string::npos);
  ASSERT_NE(text.find("\"type\":\"recv\""), std::string::npos);
  EXPECT_EQ(reserialize_journal(text), text);
}

TEST(TelemetryRoundTrip, JournalV1Bytes) {
  harness::ClusterOptions o = options(7, harness::Protocol::kIcc0);
  o.obs.journal_causal = false;
  const std::string text = journal_of(o, 5);
  ASSERT_NE(text.find(obs::JournalMeta::kSchemaV1), std::string::npos);
  EXPECT_EQ(reserialize_journal(text), text);
}

TEST(TelemetryRoundTrip, Icc2CrashJournalBytes) {
  harness::ClusterOptions o = options(7, harness::Protocol::kIcc2);
  o.corrupt.emplace_back(1, harness::Crashed{});
  o.corrupt.emplace_back(4, harness::Crashed{});
  const std::string text = journal_of(o, 5);
  ASSERT_NE(text.find("\"type\":\"rbc_phase\""), std::string::npos);
  EXPECT_EQ(reserialize_journal(text), text);
}

TEST(TelemetryRoundTrip, SeriesStreamWithWallBytes) {
  const std::string path = ::testing::TempDir() + "roundtrip_series.jsonl";
  harness::ClusterOptions o = options(4, harness::Protocol::kIcc0);
  o.obs.journal = false;
  o.obs.series = true;
  o.obs.series_window_us = 1'000'000;
  o.obs.series_wall = true;
  harness::Cluster c(o);
  ASSERT_TRUE(c.stream_series(path));
  c.run_for(sim::seconds(20));
  c.series()->flush();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const obs::TimeSeries::Parsed parsed = obs::TimeSeries::parse_jsonl(text);
  ASSERT_TRUE(parsed.has_meta);
  ASSERT_EQ(parsed.windows.size(), 20u);
  ASSERT_EQ(parsed.wall.size(), parsed.windows.size());
  obs::Registry registry;
  obs::TimeSeries ts(&registry, obs::SeriesConfig{});
  ts.meta() = parsed.meta;
  // The stream interleaves each window with its wall sample.
  std::string out = ts.meta_json() + "\n";
  for (size_t i = 0; i < parsed.windows.size(); ++i) {
    out += obs::TimeSeries::window_json(parsed.windows[i]) + "\n";
    out += obs::TimeSeries::wall_json(parsed.wall[i]) + "\n";
  }
  EXPECT_EQ(out, text);
}

// A soak stream killed mid-write ends in half a window line; the reader must
// drop that line whole instead of inventing a window from its prefix.
TEST(TelemetryRoundTrip, KilledSeriesStreamDropsTruncatedTail) {
  harness::ClusterOptions o = options(4, harness::Protocol::kIcc0);
  o.obs.journal = false;
  o.obs.series = true;
  o.obs.series_window_us = 1'000'000;
  harness::Cluster c(o);
  c.run_for(sim::seconds(10));
  const std::string text = c.series_jsonl();
  const size_t last = text.rfind("{\"type\":\"w\"");
  ASSERT_NE(last, std::string::npos);
  const obs::TimeSeries::Parsed whole = obs::TimeSeries::parse_jsonl(text);
  const obs::TimeSeries::Parsed cut = obs::TimeSeries::parse_jsonl(text.substr(0, last + 60));
  ASSERT_EQ(whole.windows.size(), 10u);
  ASSERT_EQ(cut.windows.size(), whole.windows.size() - 1);
  for (size_t i = 0; i < cut.windows.size(); ++i)
    EXPECT_EQ(obs::TimeSeries::window_json(cut.windows[i]),
              obs::TimeSeries::window_json(whole.windows[i]));
}

TEST(TelemetryRoundTrip, RuntimeReportBytes) {
  harness::ClusterOptions o = options(8, harness::Protocol::kIcc0);
  o.threads = 2;
  o.obs.runtime = true;
  harness::Cluster c(o);
  c.run_for(sim::seconds(2));
  const std::string text = c.runtime_report_json();
  std::string error;
  const auto parsed = obs::parse_runtime_report(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(obs::runtime_report_json(*parsed), text);
}

}  // namespace
}  // namespace icc
