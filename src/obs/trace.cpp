#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>

#include "support/bytes.hpp"
#include "support/defer.hpp"
#include "support/json.hpp"

namespace icc::obs {

Tracer::Tracer(size_t capacity) { ring_.resize(capacity); }

void Tracer::record(const TraceEvent& ev) {
  if (ring_.empty()) return;
  // Ring writes are deferred inside parallel regions: the slot index comes
  // from a shared cursor and the export is order-sensitive, so the write
  // must land in canonical event order (support/defer.hpp).
  if (support::DeferQueue::maybe_defer([this, ev] {
        ring_[recorded_ % ring_.size()] = ev;
        recorded_++;
      }))
    return;
  ring_[recorded_ % ring_.size()] = ev;
  recorded_++;
}

size_t Tracer::size() const { return std::min<uint64_t>(recorded_, ring_.size()); }

uint64_t Tracer::dropped() const {
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

std::string Tracer::events_json() const {
  // Collect the live slots and restore time order (the ring wraps, and
  // events are recorded at their *end* for 'X' spans, so ts is not
  // monotone even without wrapping).
  std::vector<const TraceEvent*> events;
  events.reserve(size());
  for (size_t i = 0; i < size(); ++i) events.push_back(&ring_[i]);
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->ts < b->ts; });

  std::ostringstream os;
  bool first = true;
  for (const TraceEvent* ev : events) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << json::escape(ev->name ? ev->name : "") << "\",\"cat\":\""
       << json::escape(ev->cat ? ev->cat : "") << "\",\"ph\":\"" << ev->ph
       << "\",\"ts\":" << ev->ts;
    if (ev->ph == 'X') os << ",\"dur\":" << ev->dur;
    os << ",\"pid\":" << ev->pid << ",\"tid\":" << ev->tid;
    if (ev->ph == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
    if (ev->arg0_key) {
      os << ",\"args\":{\"" << json::escape(ev->arg0_key) << "\":" << ev->arg0;
      if (ev->arg1_key) os << ",\"" << json::escape(ev->arg1_key) << "\":" << ev->arg1;
      os << "}";
    }
    os << "}";
  }
  return os.str();
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  // Self-describing ring accounting: exported files say whether (and how
  // much) the ring overwrote without needing the live Tracer.
  os << "{\"traceEvents\":[" << events_json() << "],\"metadata\":{\"recorded\":" << recorded_
     << ",\"dropped\":" << dropped() << ",\"capacity\":" << ring_.size()
     << "},\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

bool Tracer::write_json(const std::string& path) const { return write_file(path, to_json()); }

}  // namespace icc::obs
