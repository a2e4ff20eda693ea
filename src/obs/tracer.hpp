// Span tracer: records named (begin, duration) intervals per pool rank
// and emits them as a Chrome trace-event JSON array (chrome://tracing /
// Perfetto "X" complete events, microsecond units). The drivers feed it
// through obs::Region (obs/region.hpp), one span per layer boundary.
//
// Designed for block-granular spans (one pack or GEBP call each, never
// per kernel tile), so a mutex per rank lane is cheap relative to the
// span bodies. Span names must be string literals or otherwise outlive
// the tracer — they are stored as pointers, not copied.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace ag::obs {

/// Block coordinates of a traced span, attached as Chrome-trace `args`
/// so timelines are self-describing: jc/pc/ic are the layer-1/2/3 block
/// ordinals (jj/nc, kk/kc, ii/mc of the Figure 2 loops). -1 means "not
/// applicable at this layer" and is omitted from the JSON.
///
/// Up to kMaxExtra additional named integer args can ride along (the
/// batch driver tags ticket spans with shard / steal / queue-wait /
/// cache-outcome values). Keys must outlive the tracer, same as span
/// names; the fixed array keeps Event trivially copyable and allocation-
/// free on the record path.
struct BlockArgs {
  std::int64_t ic = -1;
  std::int64_t jc = -1;
  std::int64_t pc = -1;

  static constexpr int kMaxExtra = 6;
  struct Extra {
    const char* key = nullptr;
    std::int64_t value = 0;
  };
  Extra extra[kMaxExtra] = {};
  int n_extra = 0;

  /// Appends key=value (dropped silently once kMaxExtra is reached).
  BlockArgs& with(const char* key, std::int64_t value) {
    if (n_extra < kMaxExtra) extra[n_extra++] = Extra{key, value};
    return *this;
  }

  bool any() const { return ic >= 0 || jc >= 0 || pc >= 0 || n_extra > 0; }
};

class Tracer {
 public:
  /// `max_threads` lanes; events from higher ranks land in the last lane.
  /// `max_events_per_lane` bounds memory: once a lane is full further
  /// events are counted (dropped_events) but not stored.
  explicit Tracer(int max_threads = 64, std::size_t max_events_per_lane = 1 << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records one span on `rank` that started at `start` (a now_seconds()
  /// reading, common/timer.hpp) and lasted `dur` seconds; the trace shows
  /// it relative to the tracer epoch (construction or last clear()).
  void record(int rank, const char* name, double start, double dur,
              const BlockArgs& args = {});

  /// Records one sample of a named process-wide counter series at `t` (a
  /// now_seconds() reading). Emitted as a Chrome "C" counter event, which
  /// chrome://tracing / Perfetto render as a stacked area chart (the
  /// batch driver feeds queue depth through this). `name` must outlive
  /// the tracer. Bounded by the same per-lane cap.
  void counter(const char* name, double t, double value);

  /// Names the timeline lane for `rank` (thread_name metadata in the
  /// JSON). Unnamed lanes fall back to "rank N". The batch driver labels
  /// its lanes "caller" / "armgemm-pw<r>".
  void set_lane_name(int rank, const std::string& name);

  std::size_t event_count() const;       // span events (all lanes)
  std::size_t counter_event_count() const;
  std::size_t dropped_events() const;

  /// Drops all recorded events and restarts the epoch.
  void clear();

  /// Chrome trace-event JSON: leading "M"-phase process_name/thread_name
  /// metadata (process "armgemm", one named lane per rank), then one "X"
  /// complete event per span with block-index args when recorded:
  /// {"name":...,"ph":"X","pid":0,"tid":rank,"ts":micros,"dur":micros,
  ///  "args":{"jc":...,"pc":...,"ic":...}}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  struct Event {
    const char* name;
    double t0;
    double dur;
    BlockArgs args;
  };
  struct Lane {
    mutable std::mutex mutex;
    std::vector<Event> events;
    std::size_t dropped = 0;
    std::string name;  // empty -> "rank N" fallback in write_json
  };
  struct CounterEvent {
    const char* name;
    double t;
    double value;
  };

  Lane& lane(int rank);

  std::vector<Lane> lanes_;
  mutable std::mutex counter_mutex_;
  std::vector<CounterEvent> counters_;
  std::size_t counter_dropped_ = 0;
  std::size_t max_events_per_lane_;
  double epoch_;
};

}  // namespace ag::obs
