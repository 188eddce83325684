#ifndef GTER_COMMON_PROM_H_
#define GTER_COMMON_PROM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gter/common/metrics.h"

namespace gter {

/// Prometheus text-exposition (format 0.0.4) rendering of a
/// MetricsRegistry, plus the scrape-side parsing helpers perfbench's
/// serve workloads and the tests use to read percentiles back out of
/// `/metrics`.
///
/// Mapping from registry sections to Prometheus families:
///   counters           → `counter`  (one sample)
///   gauges             → `gauge`    (one sample)
///   timers             → two `counter` families: `<name>_count` and
///                        `<name>_seconds_total`
///   histograms+sliding → `histogram`: cumulative `<name>_bucket{le=...}`
///                        (sparse, ascending, `+Inf` == `_count`),
///                        `<name>_sum`, `<name>_count`
///
/// Internal slugs (`server/resolve/work_us`) become Prometheus names by
/// `PromSanitizeName` with a registry-wide prefix (default `gter_`). A
/// post-sanitization collision gets a numeric suffix plus an explanatory
/// comment line — `tools/check_metrics_names.sh` lints the declared slug
/// set so this never fires in practice.

/// Maps one internal metric slug to a valid Prometheus metric name:
/// `/` → `_`, any character outside `[a-zA-Z0-9_:]` → `_`, and a leading
/// digit gets a `_` prepended. The result matches
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` for any non-empty input.
std::string PromSanitizeName(std::string_view name);

/// Renders every metric in `registry` (sliding histograms as windowed
/// snapshots) as Prometheus text exposition. Each family is emitted as
/// `# HELP`, `# TYPE`, then its samples; families appear in sorted
/// section/name order, so output is deterministic for a given state.
std::string RenderPrometheusText(const MetricsRegistry& registry,
                                 std::string_view prefix = "gter_");

/// One histogram family parsed back out of exposition text.
struct PromParsedHistogram {
  /// Ascending cumulative (upper_bound, cumulative_count) pairs; the
  /// final `+Inf` bucket is represented with an infinite upper bound.
  std::vector<std::pair<double, uint64_t>> cumulative;
  double sum = 0.0;
  uint64_t count = 0;
};

/// Extracts histogram family `name` (the full exposed name, prefix
/// included) from exposition `text`. Returns false when the family is
/// absent or malformed.
bool FindPromHistogram(std::string_view text, std::string_view name,
                       PromParsedHistogram* out);

/// Estimated q-quantile from a parsed cumulative histogram, linearly
/// interpolated inside the bucket holding the q·count-th observation
/// (the scrape-side mirror of `Histogram::Quantile`, minus the min/max
/// envelope — exposition text does not carry one). Returns 0 when empty.
double PromHistogramQuantile(const PromParsedHistogram& h, double q);

}  // namespace gter

#endif  // GTER_COMMON_PROM_H_
