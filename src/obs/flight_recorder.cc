#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>

namespace mqpi::obs {

std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSpan: return "span";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kSequenceGap: return "seq_gap";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kTrigger: return "trigger";
    case FlightEventKind::kNote: return "note";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)),
      enabled_(options_.enabled),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t FlightRecorder::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void FlightRecorder::Record(FlightEventKind kind, const char* category,
                            const char* name, double value,
                            std::uint64_t sequence) {
  if (!enabled()) return;
  FlightEvent event;
  event.kind = kind;
  event.category = category;
  event.name = name;
  event.ts_ns = NowNs();
  event.value = value;
  event.sequence = sequence;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) {
    ring_.resize(options_.capacity == 0 ? 1 : options_.capacity);
  }
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++count_;
}

void FlightRecorder::ObserveGap(const char* category, const char* name,
                                std::uint64_t expected, std::uint64_t got) {
  if (!enabled() || got == expected) return;
  Record(FlightEventKind::kSequenceGap, category, name,
         static_cast<double>(got) - static_cast<double>(expected), got);
}

std::string FlightRecorder::Trigger(const char* reason) {
  triggers_.fetch_add(1, std::memory_order_relaxed);
  last_trigger_.store(reason, std::memory_order_relaxed);
  Record(FlightEventKind::kTrigger, "flight", reason);
  if (!options_.auto_dump) return "";

  // Throttle: a flapping trigger must not flood the disk. The CAS on
  // last_dump_ns_ makes concurrent triggers race for one dump slot.
  const std::uint64_t now = NowNs();
  const auto interval_ns = static_cast<std::uint64_t>(
      options_.min_dump_interval_s * 1e9);
  std::uint64_t last = last_dump_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < interval_ns) return "";
  if (!last_dump_ns_.compare_exchange_strong(last, now == 0 ? 1 : now,
                                             std::memory_order_relaxed)) {
    return "";
  }
  constexpr std::size_t kMaxDumps = 16;  // lifetime cap on file dumps
  const std::uint64_t n = dumps_.fetch_add(1, std::memory_order_relaxed);
  if (n >= kMaxDumps) {
    dumps_.fetch_sub(1, std::memory_order_relaxed);
    return "";
  }
  std::string path = options_.dump_dir + "/flight_" + std::to_string(n) +
                     "_" + reason + ".jsonl";
  if (!WriteJsonl(path).ok()) return "";
  return path;
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return out;
  const std::uint64_t retained =
      std::min<std::uint64_t>(count_, ring_.size());
  std::size_t at = count_ > ring_.size() ? next_ : 0;
  out.reserve(retained);
  for (std::uint64_t i = 0; i < retained; ++i) {
    out.push_back(ring_[at]);
    at = (at + 1) % ring_.size();
  }
  return out;
}

std::string FlightRecorder::DumpString() const {
  // Render through the Tracer's JSONL path: one escaped JSON object
  // per line, kind and sequence carried as args.
  std::string out;
  for (const FlightEvent& event : Events()) {
    TraceEvent trace;
    trace.category = event.category;
    trace.name = event.name;
    trace.phase = event.kind == FlightEventKind::kSpan
                      ? TracePhase::kComplete
                      : TracePhase::kInstant;
    trace.ts_ns = event.ts_ns;
    if (trace.phase == TracePhase::kComplete) {
      trace.dur_ns = static_cast<std::uint64_t>(
          event.value > 0.0 ? event.value : 0.0);
    }
    trace.arg1_key = "value";
    trace.arg1 = event.value;
    if (event.sequence != 0) {
      trace.arg2_key = "seq";
      trace.arg2 = static_cast<double>(event.sequence);
    }
    out += RenderTraceEventJson(trace);
    out += "\n";
  }
  return out;
}

Status FlightRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + path + "' for write");
  }
  file << DumpString();
  file.flush();
  if (!file) return Status::InvalidArgument("write to '" + path + "' failed");
  return Status::OK();
}

std::string FlightRecorder::Summary() const {
  std::uint64_t retained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retained = std::min<std::uint64_t>(count_, ring_.size());
  }
  std::string out = "flight_recorder: ";
  out += enabled() ? "enabled" : "disabled";
  out += " events=" + std::to_string(retained);
  out += " recorded=" + std::to_string(recorded());
  out += " triggers=" + std::to_string(triggers());
  out += " dumps=" + std::to_string(dumps());
  const char* last = last_trigger();
  if (last[0] != '\0') {
    out += " last_trigger=";
    out += last;
  }
  out += "\n";
  return out;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  count_ = 0;
}

}  // namespace mqpi::obs
