#!/usr/bin/env bash
# Metric-name lint, run by ctest under the "lint" label.
#
# Every metric registered through the MetricsRegistry with a string
# literal — counter("..."), gauge("..."), histogram("...") in src/,
# examples/, and bench/ — must use the dotted.lowercase convention (two
# or more dot-separated segments of [a-z0-9_]), and one name must not be
# registered under two different instrument kinds (Prometheus exposition
# would emit conflicting # TYPE headers for the same family).
#
# Tests are deliberately out of scope: they register throwaway local
# names ("c", "h") to exercise the registry itself.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
names_file="$(mktemp)"
trap 'rm -f "$names_file"' EXIT
fail=0

# kind<space>name pairs, comments stripped so doc examples don't trip
# the lint.
grep -rh --include='*.cc' --include='*.h' --include='*.cpp' \
     -E '(counter|gauge|histogram)\("' \
     "$root/src" "$root/examples" "$root/bench" 2>/dev/null |
  sed 's|//.*||' |
  grep -oE '(counter|gauge|histogram)\("[^"]+"' |
  sed -E 's/\(\"/ /; s/\"$//' |
  sort -u > "$names_file"

if ! [ -s "$names_file" ]; then
  echo "check_metrics_names: found no metric registrations — wrong root?" >&2
  exit 1
fi

while read -r kind name; do
  if ! printf '%s' "$name" | grep -qE '^[a-z0-9_]+(\.[a-z0-9_]+)+$'; then
    echo "bad metric name: '$name' ($kind) — use dotted.lowercase" \
         "segments, e.g. service.submits" >&2
    fail=1
  fi
done < "$names_file"

dups="$(awk '{print $2}' "$names_file" | sort | uniq -d)"
for name in $dups; do
  kinds="$(awk -v n="$name" '$2 == n {print $1}' "$names_file" |
           tr '\n' ' ')"
  echo "metric name '$name' registered under multiple kinds: $kinds" >&2
  fail=1
done

# Counters the service contract promises to publish (dashboards and
# the estimate auditor key on them): renaming or dropping one must
# fail the lint, not silently vanish from the exposition.
required_counters="
pi.forecast_cache_hit
pi.forecast_cache_miss
pi.incremental_fast_path
pi.incremental_fallback
recover.journal_records
recover.journal_write_fails
recover.checkpoints_written
service.drains
net.client.reconnects
net.client.resubscribes
coord.merges
coord.rebalance_hints
"
for name in $required_counters; do
  if ! grep -q "^counter $name\$" "$names_file"; then
    echo "required counter '$name' is no longer registered anywhere" >&2
    fail=1
  fi
done

# Gauges the liveness contract shares between /healthz and the
# watchdog, and the rate-assumption gauge accuracy dashboards read
# (pi.rate_ratio: measured rate over configured C).
required_gauges="
service.uptime_quanta
service.ticker_last_step_age_quanta
coord.shards
pi.rate_ratio
"
for name in $required_gauges; do
  if ! grep -q "^gauge $name\$" "$names_file"; then
    echo "required gauge '$name' is no longer registered anywhere" >&2
    fail=1
  fi
done

# Histograms the telemetry plane promises: Prometheus scrapes key on
# the *_bucket families these expand into.
required_histograms="
net.publish_to_write_ns
step.wall_ms
coord.merge_ns
"
for name in $required_histograms; do
  if ! grep -q "^histogram $name\$" "$names_file"; then
    echo "required histogram '$name' is no longer registered anywhere" >&2
    fail=1
  fi
done

# Sharded /metrics exposition must keep injecting the shard label on
# every shard-scope registry dump (Grafana queries key on it).
if ! grep -rqE '\{\{"shard"' "$root/src/net/http_export.cc"; then
  echo "sharded /metrics no longer injects the shard=\"i\" label" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "check_metrics_names: $(wc -l < "$names_file") metric names OK"
fi
exit "$fail"
