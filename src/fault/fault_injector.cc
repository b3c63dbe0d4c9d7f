#include "fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "obs/tracer.h"

namespace mqpi::fault {

namespace {

/// FNV-1a over the point name: combined with the injector seed it
/// forks one independent RNG stream per point, so the fire sequence of
/// a point never depends on which other points are armed.
std::uint64_t HashName(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed)
    : seed_(seed), tracer_(obs::GlobalTracer()) {}

FaultInjector::Point* FaultInjector::FindOrCreate(const char* literal_name,
                                                  std::string_view point) {
  auto it = points_.find(point);
  if (it != points_.end()) return &it->second;
  Point p;
  p.name = literal_name;
  p.rng = Rng(seed_ ^ HashName(point));
  auto [inserted, _] = points_.emplace(std::string(point), std::move(p));
  return &inserted->second;
}

void FaultInjector::Arm(const char* point, FaultSpec spec) {
  std::sort(spec.schedule.begin(), spec.schedule.end());
  std::lock_guard<std::mutex> lock(mu_);
  Point* p = FindOrCreate(point, point);
  const bool was_armed = p->armed;
  p->spec = std::move(spec);
  p->armed = true;
  // Re-arming restarts the point's deterministic life: the per-arm
  // counters, the schedule cursor and the RNG stream reset to the seeded
  // state; lifetime_fires keeps counting.
  p->evaluations = 0;
  p->fires = 0;
  p->next_scheduled = 0;
  p->rng = Rng(seed_ ^ HashName(point));
  if (!was_armed) armed_points_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::ArmProbability(const char* point, double probability,
                                   double value) {
  FaultSpec spec;
  spec.probability = probability;
  spec.value = value;
  Arm(point, std::move(spec));
}

void FaultInjector::ArmSchedule(const char* point,
                                std::vector<std::uint64_t> schedule,
                                double value) {
  FaultSpec spec;
  spec.schedule = std::move(schedule);
  spec.value = value;
  Arm(point, std::move(spec));
}

void FaultInjector::Disarm(std::string_view point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_points_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, p] : points_) p.armed = false;
  armed_points_.store(0, std::memory_order_relaxed);
}

FaultInjector::Fire FaultInjector::Evaluate(std::string_view point) {
  Fire fire;
  const char* trace_name = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) return fire;
    Point& p = it->second;
    const std::uint64_t index = p.evaluations++;
    if (p.fires >= p.spec.max_fires) return fire;
    bool fired = false;
    if (p.next_scheduled < p.spec.schedule.size() &&
        p.spec.schedule[p.next_scheduled] == index) {
      ++p.next_scheduled;
      fired = true;
    }
    // The probability draw happens on every evaluation (not only when
    // the schedule missed), so the stream position depends only on the
    // evaluation count — schedule entries don't shift later draws.
    const bool chance =
        p.spec.probability > 0.0 && p.rng.NextDouble() < p.spec.probability;
    fired = fired || chance;
    if (!fired) return fire;
    ++p.fires;
    ++p.lifetime_fires;
    fire.fired = true;
    fire.value = p.spec.value;
    trace_name = p.name;
  }
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_->enabled()) {
    tracer_->Instant("fault", trace_name, kInvalidQueryId, "value",
                     fire.value);
  }
  return fire;
}

double FaultInjector::ScaleOr(std::string_view point, double fallback) {
  const Fire fire = Evaluate(point);
  return fire.fired ? fire.value : fallback;
}

std::uint64_t FaultInjector::PickIndex(std::string_view point,
                                       std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end() || n == 0) return 0;
  return it->second.rng.Next() % n;
}

std::vector<FaultInjector::PointStats> FaultInjector::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PointStats> out;
  out.reserve(points_.size());
  for (const auto& [name, p] : points_) {
    PointStats stats;
    stats.point = p.name;
    stats.evaluations = p.evaluations;
    stats.fires = p.fires;
    stats.lifetime_fires = p.lifetime_fires;
    out.push_back(stats);
  }
  return out;
}

}  // namespace mqpi::fault
