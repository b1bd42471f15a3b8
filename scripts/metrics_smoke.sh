#!/usr/bin/env bash
# CI smoke test for the live telemetry subsystem.
#
# Runs the observed_stream example with a Prometheus endpoint on an
# OS-assigned port and a Perfetto trace file, scrapes /metrics while the
# endpoint is held open, and asserts:
#
#   * the scrape answers 200 with >= 10 metric families (# TYPE lines);
#   * core families (comparisons, matches, queue depth, recall) are present;
#   * the exported trace is valid chrome-trace JSON with at least one "X"
#     span for every pipeline phase.
#
# Usage: scripts/metrics_smoke.sh  (from the repo root; builds the example)
set -euo pipefail

cd "$(dirname "$0")/.."

log=$(mktemp)
trace=$(mktemp -u --suffix .json)
trap 'kill "$pid" 2>/dev/null || true; rm -f "$log" "$trace" "$trace.events.jsonl"' EXIT

cargo build --release --example observed_stream

./target/release/examples/observed_stream \
    --metrics-addr 127.0.0.1:0 \
    --trace-out "$trace" \
    --match-workers 2 \
    --hold-metrics-secs 30 >"$log" 2>&1 &
pid=$!

# The example prints "metrics: scrape with `curl http://ADDR/metrics`"
# once the endpoint is bound; poll the log for the assigned address.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*scrape with `curl http:\/\/\([^/]*\)\/metrics`.*/\1/p' "$log" | head -n1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "observed_stream exited before binding the metrics endpoint" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "metrics endpoint address never appeared in the log" >&2
    cat "$log" >&2
    exit 1
fi
echo "metrics endpoint: $addr"

python3 - "$addr" <<'EOF'
import sys
import urllib.request

addr = sys.argv[1]
body = urllib.request.urlopen(f"http://{addr}/metrics", timeout=10).read().decode()
families = [l.split()[2] for l in body.splitlines() if l.startswith("# TYPE ")]
print(f"scraped {len(families)} metric families")
assert len(families) >= 10, f"expected >= 10 families, got {len(families)}: {families}"
for required in [
    "pier_comparisons_total",
    "pier_matches_confirmed_total",
    "pier_queue_depth",
    "pier_recall_estimate",
    "pier_phase_seconds",
]:
    assert required in families, f"missing family {required} in {families}"
EOF

wait "$pid"
echo "--- example tail ---"
tail -n 5 "$log"

python3 - "$trace" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    trace = json.load(fh)
events = trace["traceEvents"]
spans = {}
for ev in events:
    if ev.get("ph") == "X":
        spans[ev["name"]] = spans.get(ev["name"], 0) + 1
print(f"trace: {len(events)} events, spans per phase: {spans}")
for phase in ["block", "weight", "prune", "classify"]:
    assert spans.get(phase, 0) >= 1, f"no '{phase}' span in the trace"
EOF

echo "metrics smoke passed"
