#include "obs/journal.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "obs/obs.hpp"
#include "support/bytes.hpp"
#include "support/defer.hpp"
#include "support/json.hpp"

namespace icc::obs {

namespace {

/// Intern a parsed string onto the static journal constants (event types,
/// provenance/phase literals) so recorded and parsed events compare equal by
/// pointer; unknown strings are copied into a small leak-free-enough static
/// pool (parsing happens in offline tools).
const char* intern_string(const std::string& s) {
  using namespace journal_type;
  static constexpr const char* kKnown[] = {
      kRoundEnter, kProposal,   kPropose,       kNotarShare,   kNotarAgg,
      kFinalShare, kFinalAgg,   kFinalized,     kCommit,       kBeaconShare,
      kBeacon,     kRbcPhase,   kGossipDeliver, kSend,         kRecv,
      kGossipAdvert, kGossipRequest,            "combined",    "wire",
      "disperse",  "echo",      "reconstruct",  "deliver",     "reject"};
  for (const char* k : kKnown)
    if (s == k) return k;
  static std::vector<std::unique_ptr<std::string>>* pool =
      new std::vector<std::unique_ptr<std::string>>();
  for (const auto& p : *pool)
    if (*p == s) return p->c_str();
  pool->push_back(std::make_unique<std::string>(s));
  return pool->back()->c_str();
}

}  // namespace

// The two JSONL record types. `events` and `seq` are written from the
// exporter's context, never stored; v1 journals simply lack the causal
// fields (peer, edge), which then keep their sentinels.
template <class Io>
void json_fields(Io& io, JournalMeta& m, uint64_t events = 0) {
  io.tag("type", "meta");
  io.field("schema", m.schema);
  io.field("n", m.n);
  io.field("t", m.t);
  io.tag("quorum", m.quorum());
  io.field("protocol", m.protocol);
  io.field("seed", m.seed);
  io.tag("events", events);
  io.field("dropped", m.dropped);
}

template <class Io>
void json_fields(Io& io, JournalEvent& ev, uint64_t seq = 0) {
  constexpr uint32_t kNoParty = JournalEvent::kNoParty;
  io.tag("seq", seq);
  io.field("type", json::Interned{ev.type, intern_string});
  io.field("ts", ev.ts);
  io.opt("party", ev.party, kNoParty);
  io.opt("peer", ev.peer, kNoParty);
  io.opt("round", ev.round, 0);
  io.opt("proposer", ev.proposer, kNoParty);
  io.opt("edge", ev.edge, 0);
  io.opt("hash", json::Hex{ev.hash, ev.hash_len});
  io.opt("signers", ev.signers);
  io.opt("detail", json::Interned{ev.detail, intern_string});
  io.opt("value", ev.value, JournalEvent::kNoValue);
}

namespace {

std::optional<JournalEvent> event_from(const json::Value& v) {
  const std::string_view type = v.text("type");
  if (type.empty() || type == "meta") return std::nullopt;
  JournalEvent ev;
  json::read(v, ev);
  return ev;
}

std::optional<JournalMeta> meta_from(const json::Value& v) {
  if (v.text("type") != "meta") return std::nullopt;
  JournalMeta m;
  json::read(v, m);
  if (m.schema.empty()) m.schema = JournalMeta::kSchemaV1;
  return m;
}

std::optional<json::Value> parse_line(const std::string& line) {
  json::Value v;
  if (!json::parse(line, &v, nullptr)) return std::nullopt;
  return v;
}

}  // namespace

void JournalEvent::set_hash(const uint8_t* data, size_t len) {
  hash_len = static_cast<uint8_t>(len < hash.size() ? len : hash.size());
  std::memcpy(hash.data(), data, hash_len);
}

std::string JournalEvent::hash_hex() const {
  return to_hex(BytesView(hash.data(), hash_len));
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

void Journal::append(JournalEvent ev) {
  if (capacity_ == 0) return;
  // Inside a parallel region (support/defer.hpp) the append rides the defer
  // queue: the event store mutates only on the coordinating thread, in
  // canonical event order, so the JSONL stays byte-identical at any thread
  // count. The sequential path pays one thread-local load.
  // (The lambda must not steal `ev` before we know a queue is installed.)
  if (support::DeferQueue* q = support::DeferQueue::current()) {
    q->push([this, ev = std::move(ev)]() mutable { append_in_order(std::move(ev)); });
    return;
  }
  append_in_order(std::move(ev));
}

void Journal::append_in_order(JournalEvent ev) {
  if (events_.size() + external_ >= capacity_) {
    dropped_++;
    return;
  }
  events_.push_back(std::move(ev));
}

void Journal::merge_external(std::vector<std::pair<uint64_t, JournalEvent>>&& recs) {
  if (recs.empty()) return;
  external_ -= std::min<uint64_t>(external_, recs.size());
  std::vector<JournalEvent> merged;
  merged.reserve(events_.size() + recs.size());
  size_t r = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    while (r < recs.size() && recs[r].first <= i)
      merged.push_back(std::move(recs[r++].second));
    merged.push_back(std::move(events_[i]));
  }
  while (r < recs.size()) merged.push_back(std::move(recs[r++].second));
  events_ = std::move(merged);
}

std::string Journal::meta_json(const JournalMeta& meta, uint64_t event_count,
                               uint64_t dropped) {
  JournalMeta m = meta;
  if (m.schema.empty()) m.schema = JournalMeta::kSchemaV1;
  m.dropped = dropped;
  return json::write(m, event_count);
}

std::string Journal::event_json(const JournalEvent& ev, uint64_t seq) {
  return json::write(ev, seq);
}

std::string Journal::to_jsonl() const {
  std::string out = meta_json(meta_, events_.size(), dropped_) + "\n";
  uint64_t seq = 1;
  for (const JournalEvent& ev : events_) {
    json::write_to(&out, ev, seq++);
    out.push_back('\n');
  }
  return out;
}

bool Journal::write_jsonl(const std::string& path) const { return write_file(path, to_jsonl()); }

std::optional<JournalEvent> Journal::parse_event_line(const std::string& line) {
  const auto v = parse_line(line);
  return v ? event_from(*v) : std::nullopt;
}

std::optional<JournalMeta> Journal::parse_meta_line(const std::string& line) {
  const auto v = parse_line(line);
  return v ? meta_from(*v) : std::nullopt;
}

Journal::Parsed Journal::parse_jsonl(const std::string& text) {
  Parsed out;
  json::for_each_object_line(text, [&](const json::Value& v) {
    if (!out.has_meta) {
      if (auto meta = meta_from(v)) {
        out.meta = std::move(*meta);
        out.has_meta = true;
        return;
      }
    }
    if (auto ev = event_from(v)) out.events.push_back(std::move(*ev));
  });
  return out;
}

// ---------------------------------------------------------------------------
// JournalScribe
// ---------------------------------------------------------------------------

void JournalScribe::attach(Obs* obs, uint32_t party) {
  journal_ = obs ? obs->journal() : nullptr;
  party_ = party;
}

JournalEvent JournalScribe::event(const char* type, uint64_t round, int64_t now,
                                  uint32_t proposer, std::span<const uint8_t> hash) const {
  JournalEvent ev;
  ev.type = type;
  ev.ts = now;
  ev.party = party_;
  ev.round = round;
  ev.proposer = proposer;
  if (!hash.empty()) ev.set_hash(hash.data(), hash.size());
  return ev;
}

void JournalScribe::round_enter(uint64_t round, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kRoundEnter, round, now));
}

void JournalScribe::proposal(uint64_t round, uint32_t proposer,
                             const std::array<uint8_t, 32>& hash, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kProposal, round, now, proposer, hash));
}

void JournalScribe::propose(uint64_t round, const std::array<uint8_t, 32>& hash,
                            int64_t now) {
  if (journal_) journal_->append(event(journal_type::kPropose, round, now, party_, hash));
}

void JournalScribe::notar_share(uint64_t round, uint32_t proposer,
                                const std::array<uint8_t, 32>& hash, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kNotarShare, round, now, proposer, hash));
}

void JournalScribe::notar_agg(uint64_t round, uint32_t proposer,
                              const std::array<uint8_t, 32>& hash,
                              std::vector<uint32_t> signers, const char* provenance,
                              int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kNotarAgg, round, now, proposer, hash);
  ev.signers = std::move(signers);
  ev.detail = provenance;
  journal_->append(std::move(ev));
}

void JournalScribe::final_share(uint64_t round, uint32_t proposer,
                                const std::array<uint8_t, 32>& hash, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kFinalShare, round, now, proposer, hash));
}

void JournalScribe::final_agg(uint64_t round, uint32_t proposer,
                              const std::array<uint8_t, 32>& hash,
                              std::vector<uint32_t> signers, const char* provenance,
                              int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kFinalAgg, round, now, proposer, hash);
  ev.signers = std::move(signers);
  ev.detail = provenance;
  journal_->append(std::move(ev));
}

void JournalScribe::finalized(uint64_t round, const std::array<uint8_t, 32>& hash,
                              int64_t now) {
  if (journal_) journal_->append(event(journal_type::kFinalized, round, now, kNoParty, hash));
}

void JournalScribe::commit(uint64_t round, const std::array<uint8_t, 32>& hash,
                           int64_t now) {
  if (journal_) journal_->append(event(journal_type::kCommit, round, now, kNoParty, hash));
}

void JournalScribe::beacon_share(uint64_t round, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kBeaconShare, round, now));
}

void JournalScribe::beacon(uint64_t round, const std::vector<uint8_t>& value,
                           int64_t now) {
  if (journal_) journal_->append(event(journal_type::kBeacon, round, now, kNoParty, value));
}

void JournalScribe::rbc_phase(uint64_t round, uint32_t proposer,
                              const std::array<uint8_t, 32>& hash, const char* phase,
                              int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kRbcPhase, round, now, proposer, hash);
  ev.detail = phase;
  journal_->append(std::move(ev));
}

void JournalScribe::gossip_deliver(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                                   uint64_t bytes, int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kGossipDeliver, round, now, kNoParty, artifact_id);
  ev.value = static_cast<int64_t>(bytes);
  journal_->append(std::move(ev));
}

void JournalScribe::gossip_advert(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                                  uint32_t advertiser, int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kGossipAdvert, round, now, kNoParty, artifact_id);
  ev.peer = advertiser;
  journal_->append(std::move(ev));
}

void JournalScribe::gossip_request(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                                   uint32_t target, int64_t attempt, int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kGossipRequest, round, now, kNoParty, artifact_id);
  ev.peer = target;
  ev.value = attempt;
  journal_->append(std::move(ev));
}

}  // namespace icc::obs
