#include "obs/tracer.hpp"

#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "common/timer.hpp"

namespace ag::obs {

Tracer::Tracer(int max_threads, std::size_t max_events_per_lane)
    : lanes_(static_cast<std::size_t>(max_threads < 1 ? 1 : max_threads)),
      max_events_per_lane_(max_events_per_lane),
      epoch_(now_seconds()) {}

Tracer::Lane& Tracer::lane(int rank) {
  std::size_t i = rank < 0 ? 0 : static_cast<std::size_t>(rank);
  if (i >= lanes_.size()) i = lanes_.size() - 1;
  return lanes_[i];
}

void Tracer::record(int rank, const char* name, double start, double dur,
                    const BlockArgs& args) {
  Lane& l = lane(rank);
  std::lock_guard lock(l.mutex);
  if (l.events.size() >= max_events_per_lane_) {
    ++l.dropped;
    return;
  }
  if (l.events.capacity() == 0) l.events.reserve(256);
  l.events.push_back(Event{name, start - epoch_, dur, args});
}

void Tracer::counter(const char* name, double t, double value) {
  std::lock_guard lock(counter_mutex_);
  if (counters_.size() >= max_events_per_lane_) {
    ++counter_dropped_;
    return;
  }
  if (counters_.capacity() == 0) counters_.reserve(256);
  counters_.push_back(CounterEvent{name, t - epoch_, value});
}

void Tracer::set_lane_name(int rank, const std::string& name) {
  Lane& l = lane(rank);
  std::lock_guard lock(l.mutex);
  l.name = name;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& l : lanes_) {
    std::lock_guard lock(l.mutex);
    n += l.events.size();
  }
  return n;
}

std::size_t Tracer::counter_event_count() const {
  std::lock_guard lock(counter_mutex_);
  return counters_.size();
}

std::size_t Tracer::dropped_events() const {
  std::size_t n = 0;
  for (const auto& l : lanes_) {
    std::lock_guard lock(l.mutex);
    n += l.dropped;
  }
  std::lock_guard lock(counter_mutex_);
  return n + counter_dropped_;
}

void Tracer::clear() {
  for (auto& l : lanes_) {
    std::lock_guard lock(l.mutex);
    l.events.clear();
    l.dropped = 0;
    l.name.clear();
  }
  {
    std::lock_guard lock(counter_mutex_);
    counters_.clear();
    counter_dropped_ = 0;
  }
  epoch_ = now_seconds();
}

void Tracer::write_json(std::ostream& os) const {
  os << "[";
  bool first = true;
  const auto emit_metadata = [&](const char* what, std::size_t tid, const std::string& name) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":" << JsonWriter::quoted(name) << "}}";
  };
  // process_name / thread_name metadata make the timeline self-describing
  // in chrome://tracing and Perfetto; only lanes with events get a name.
  emit_metadata("process_name", 0, "armgemm");
  for (std::size_t rank = 0; rank < lanes_.size(); ++rank) {
    const Lane& l = lanes_[rank];
    std::lock_guard lock(l.mutex);
    if (l.events.empty()) continue;
    std::string name = l.name;
    if (name.empty())
      name = rank == 0 ? "rank 0 (driver)" : "rank " + std::to_string(rank);
    emit_metadata("thread_name", rank, name);
  }
  for (std::size_t rank = 0; rank < lanes_.size(); ++rank) {
    const Lane& l = lanes_[rank];
    std::lock_guard lock(l.mutex);
    for (const Event& e : l.events) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"name\":" << JsonWriter::quoted(e.name)
         << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << rank << ",\"ts\":" << e.t0 * 1e6
         << ",\"dur\":" << e.dur * 1e6;
      if (e.args.any()) {
        os << ",\"args\":{";
        bool first_arg = true;
        const auto arg = [&](const char* key, std::int64_t v) {
          if (v < 0) return;
          if (!first_arg) os << ",";
          first_arg = false;
          os << "\"" << key << "\":" << v;
        };
        arg("jc", e.args.jc);
        arg("pc", e.args.pc);
        arg("ic", e.args.ic);
        for (int i = 0; i < e.args.n_extra; ++i) {
          if (!first_arg) os << ",";
          first_arg = false;
          os << JsonWriter::quoted(e.args.extra[i].key) << ":" << e.args.extra[i].value;
        }
        os << "}";
      }
      os << "}";
    }
  }
  {
    // Counter series: Chrome "C" events render as a stacked chart named
    // after the event; the series value rides in args under the same key.
    std::lock_guard lock(counter_mutex_);
    for (const CounterEvent& c : counters_) {
      if (!first) os << ",\n";
      first = false;
      const std::string name = JsonWriter::quoted(c.name);
      os << "{\"name\":" << name << ",\"ph\":\"C\",\"pid\":0,\"ts\":" << c.t * 1e6
         << ",\"args\":{" << name << ":" << c.value << "}}";
    }
  }
  os << "]";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  os.precision(9);
  write_json(os);
  return os.str();
}

}  // namespace ag::obs
