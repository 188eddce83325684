#!/usr/bin/env bash
# Metric-name lint (wired into ctest as `check_metrics_names`).
#
# Every internal metric slug must match [a-z0-9_/]+ and the set of slugs
# must map 1:1 onto valid Prometheus names under prom.cc's sanitization
# (gter_ prefix, '/' -> '_'). If two distinct slugs collapsed onto one
# Prometheus name, RenderPrometheusText would have to rename one of them
# on the fly (the ClaimName numeric-suffix fallback) and dashboards keyed
# on the name would silently split — so we reject that here, at the
# declaration site, instead.
#
# Every name the DeclarePipelineMetrics list declares must also have an
# emit site: the same literal somewhere under src/ outside that list.
# Otherwise a --metrics_out dump advertises, at zero, a stage that no
# longer runs.
#
# Slug sources (kept in sync with where metrics are declared):
#   * the DeclarePipelineMetrics literal list (src/gter/core/fusion.cc)
#   * the name literal of every MetricsRegistry write (AddCounter,
#     SetGauge, Observe, MergeHistogram, RecordTime) and of every
#     ScopedTimer under src/
#   * service.cc's per-method "server/..." timer names
#   * server.cc's kMethodSlotNames x {queue_us, work_us} sliding
#     histograms, plus the server/uptime_s gauge
#
# Usage: tools/check_metrics_names.sh [repo-root]

set -u -o pipefail

repo_root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
src="${repo_root}/src"
fusion_cc="${src}/gter/core/fusion.cc"
server_cc="${src}/gter/server/server.cc"

fail=0
err() {
  echo "check_metrics_names: $*" >&2
  fail=1
}

for f in "${fusion_cc}" "${server_cc}"; do
  if [[ ! -f "$f" ]]; then
    echo "check_metrics_names: missing $f" >&2
    exit 2
  fi
done

slugs_file="$(mktemp)"
declared_file="$(mktemp)"
emit_file="$(mktemp)"
trap 'rm -f "${slugs_file}" "${declared_file}" "${emit_file}"' EXIT

# 1. The DeclarePipelineMetrics body: every string literal between the
#    function's opening line and its closing brace.
awk '/^void DeclarePipelineMetrics/,/^}/' "${fusion_cc}" \
  | grep -o '"[^"]*"' | tr -d '"' > "${declared_file}"
cat "${declared_file}" >> "${slugs_file}"

# 2. Every name a stage writes: the literals of the name argument of each
#    MetricsRegistry write call (the first argument) and of each
#    ScopedTimer (the third, after the two sinks), across line breaks. An
#    argument that picks one of two names by a conditional (cliquerank.cc:
#    cliquerank/engine_dense or cliquerank/engine_masked) contributes both,
#    and any literal is taken, so the charset rule sees bad names.
find "${src}" \( -name '*.cc' -o -name '*.h' \) -exec cat {} + \
  | perl -0777 -ne '
      my @args;
      push @args, $1 while
          /\b(?:AddCounter|SetGauge|Observe|MergeHistogram|RecordTime)
           \s*\(\s*([^,;()]*)/gx;
      push @args, $1 while
          /\bScopedTimer\s+\w+\s*\(\s*[^,;]*,\s*[^,;]*,\s*([^,;()]*)/g;
      for my $arg (@args) { print "$1\n" while $arg =~ /"([^"]*)"/g; }
    ' >> "${slugs_file}"

# 3. The per-request "server/..." literals (service.cc timer names,
#    server.cc's uptime gauge). The bare "server/" composition prefix is
#    not itself a slug, hence the \+ after the slash.
grep -rh -o '"server/[a-z0-9_/]\+"' "${src}/gter/server" --include='*.cc' \
  | tr -d '"' >> "${slugs_file}"

# 4. The sliding-histogram families server.cc composes at runtime:
#    server/<method-slot>/{queue_us,work_us}.
awk '/kMethodSlotNames\[\] = \{/,/\};/' "${server_cc}" \
  | grep -o '"[^"]*"' | tr -d '"' \
  | while read -r slot; do
      echo "server/${slot}/queue_us"
      echo "server/${slot}/work_us"
    done >> "${slugs_file}"

sort -u "${slugs_file}" -o "${slugs_file}"
total="$(wc -l < "${slugs_file}")"
if [[ "${total}" -lt 20 ]]; then
  err "extraction looks broken: only ${total} slugs found (expected 20+)"
fi

# Rule 1: slug charset.
while read -r slug; do
  if ! [[ "${slug}" =~ ^[a-z0-9_/]+$ ]]; then
    err "slug '${slug}' violates [a-z0-9_/]+"
  fi
  if [[ "${slug}" == /* || "${slug}" == */ || "${slug}" == *//* ]]; then
    err "slug '${slug}' has an empty path segment"
  fi
done < "${slugs_file}"

# Rule 2: sanitized Prometheus names are valid and collision-free.
sanitized="$(sed 's|/|_|g; s|^|gter_|' "${slugs_file}")"
while read -r name; do
  if ! [[ "${name}" =~ ^[a-zA-Z_:][a-zA-Z0-9_:]*$ ]]; then
    err "prometheus name '${name}' is invalid"
  fi
done <<< "${sanitized}"

dupes="$(echo "${sanitized}" | sort | uniq -d)"
if [[ -n "${dupes}" ]]; then
  err "distinct slugs collide after sanitization: ${dupes}"
fi

# Rule 3: every declared name is emitted somewhere. The search text is all
# of src/ except the DeclarePipelineMetrics body itself.
{
  awk '/^void DeclarePipelineMetrics/,/^}/ {next} {print}' "${fusion_cc}"
  find "${src}" \( -name '*.cc' -o -name '*.h' \) ! -path "${fusion_cc}" \
    -exec cat {} +
} > "${emit_file}"
while read -r slug; do
  if ! grep -qF "\"${slug}\"" "${emit_file}"; then
    err "declared metric '${slug}' has no emit site under src/"
  fi
done < "${declared_file}"

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo "check_metrics_names: ${total} slugs OK"
exit 0
