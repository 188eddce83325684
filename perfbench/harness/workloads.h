#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

// The four benchmark workloads (perfbench/README.md says why each exists).

#include <cstdint>
#include <string>
#include <vector>

#include "harness/bench.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string gterd;    // path of the gterd binary
  std::string workdir;  // scratch directory for generated inputs and logs
};

struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check failures; the run is correct when this is empty.
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Run-validity facts printed beside the result (never compared).
  std::vector<Metric> diagnostics;
};

/// fusion_sparse / fusion_dense: in-process FusionPipeline runs.
RunOutput RunFusionWorkload(const RunArgs& args);

/// serve_read / serve_ingest: gterd in its own process under open-loop load.
RunOutput RunServeWorkload(const RunArgs& args);

/// Every per-layer metric name with its unit, in print order. A workload
/// that does not load a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills `out->per_layer` from `values` in PerLayerMetrics() order, with 0
/// for names the workload did not set.
void EmitPerLayer(const std::vector<std::pair<std::string, double>>& values,
                  RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
