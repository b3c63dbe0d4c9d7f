// FlightRecorder: the black box. A bounded ring of recent telemetry
// events — per-quantum step spans, fault firings, snapshot sequence
// gaps, consumer sheds — that is always recording (cheap: one mutex'd
// ring write per event, a handful of events per quantum) and dumps its
// window as JSONL the moment something goes wrong, so the moments
// *before* an incident are preserved without anyone having had tracing
// enabled in advance.
//
// Dump triggers (wired in by PiService / net::PiServer):
//   - the ticker watchdog replaces a stalled ticker thread,
//   - a slow consumer is shed at the network edge,
//   - a degraded snapshot is published (staleness past threshold).
// Triggers are throttled (`min_dump_interval_s`, 16 dumps a lifetime)
// so a flapping system cannot flood the disk, and every trigger is
// counted and visible in /statusz even when file dumps are off.
//
// Export rides the Tracer's JSONL path: events are rendered with the
// same JSON-escaped renderer (obs::RenderTraceEventJson), so a flight
// dump greps and parses exactly like a tracer export.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/tracer.h"

namespace mqpi::obs {

enum class FlightEventKind : std::uint8_t {
  kSpan = 0,         // a completed scope (e.g. one step_and_publish)
  kFault = 1,        // a fault point fired
  kSequenceGap = 2,  // published/delivered sequences skipped
  kShed = 3,         // a slow consumer was shed
  kTrigger = 4,      // a dump trigger fired
  kNote = 5,         // anything else worth keeping in the window
};

std::string_view FlightEventKindName(FlightEventKind kind);

/// One retained event. Plain value type; `category`/`name` must be
/// string literals (static storage), which keeps recording
/// allocation-free exactly like the Tracer's events.
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kNote;
  const char* category = "";
  const char* name = "";
  /// Wall-clock nanoseconds since the recorder's construction.
  std::uint64_t ts_ns = 0;
  /// Kind-specific magnitude (span ns, fault value, gap width...).
  double value = 0.0;
  /// Snapshot sequence the event refers to (0 = none).
  std::uint64_t sequence = 0;
};

struct FlightRecorderOptions {
  /// Ring capacity; oldest events are overwritten.
  std::size_t capacity = 4096;
  /// Recording gate. Default on — a black box that must be armed by
  /// hand records nothing when the crash comes.
  bool enabled = true;
  /// Write a JSONL file per (unthrottled) trigger. Off by default so
  /// tests and libraries never litter the filesystem; servers opt in.
  bool auto_dump = false;
  /// Directory for auto-dump files (`flight_<n>_<reason>.jsonl`).
  std::string dump_dir = ".";
  /// Minimum wall seconds between file dumps (at most 16 a lifetime).
  double min_dump_interval_s = 5.0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The hot-path gate: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records one event (timestamp stamped here). No-op while disabled.
  void Record(FlightEventKind kind, const char* category, const char* name,
              double value = 0.0, std::uint64_t sequence = 0);

  /// Sequence-gap watch: callers hold their own cursor and report the
  /// sequence they expected next vs the one they got; a mismatch is
  /// recorded as a kSequenceGap event (value = got - expected, i.e.
  /// how many sequences were skipped; negative = regression). `name`
  /// distinguishes the stream ("published", "conn_push", ...).
  void ObserveGap(const char* category, const char* name,
                  std::uint64_t expected, std::uint64_t got);

  /// A dump trigger: records a kTrigger event and, when auto_dump is
  /// on and not throttled, writes the ring as JSONL. Returns the file
  /// path written, or "" (throttled / auto_dump off / write failed).
  /// `reason` must be a string literal.
  std::string Trigger(const char* reason);

  /// All retained events, oldest first.
  std::vector<FlightEvent> Events() const;

  /// The ring rendered as JSONL (one Tracer-style object per line).
  std::string DumpString() const;
  Status WriteJsonl(const std::string& path) const;

  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t triggers() const {
    return triggers_.load(std::memory_order_relaxed);
  }
  std::uint64_t dumps() const {
    return dumps_.load(std::memory_order_relaxed);
  }
  /// Last trigger reason ("" before the first); a string literal.
  const char* last_trigger() const {
    return last_trigger_.load(std::memory_order_relaxed);
  }

  /// Short operational summary for /statusz.
  std::string Summary() const;

  void Clear();

 private:
  std::uint64_t NowNs() const;

  const FlightRecorderOptions options_;
  std::atomic<bool> enabled_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  // allocated on first event
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;  // events ever recorded

  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<const char*> last_trigger_{""};
  std::atomic<std::uint64_t> last_dump_ns_{0};
};

}  // namespace mqpi::obs
