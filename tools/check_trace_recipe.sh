#!/usr/bin/env bash
# Runs EXPERIMENTS.md's "Capturing and viewing a trace" recipe as written,
# in <workdir>, and passes only when the trace.json it writes parses as
# JSON and holds at least one iter/sweep span.
#
# Usage: tools/check_trace_recipe.sh <gter_cli> <workdir>

set -eu -o pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <gter_cli> <workdir>" >&2
  exit 2
fi
gter_cli="$1"
mkdir -p "$2"
cd "$2"
rm -f d.csv trace.json

"${gter_cli}" generate --out=d.csv --scale=0.1
"${gter_cli}" resolve --in=d.csv --trace_out=trace.json

python3 - <<'PY'
import json

with open("trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"] if isinstance(trace, dict) else trace
sweeps = sum(1 for e in events if e.get("name") == "iter/sweep")
print(f"trace.json: {len(events)} events, {sweeps} iter/sweep spans")
raise SystemExit(0 if sweeps >= 1 else 1)
PY
