#include "gter/core/correlation_clustering.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"

namespace gter {
namespace {

/// Per-record adjacency over candidate pairs with ±1 votes.
struct VoteGraph {
  std::vector<std::vector<std::pair<uint32_t, int>>> adj;  // (neighbor, vote)

  VoteGraph(size_t num_records, const PairSpace& pairs,
            const std::vector<double>& probability, double threshold)
      : adj(num_records) {
    for (PairId p = 0; p < pairs.size(); ++p) {
      const RecordPair& rp = pairs.pair(p);
      int vote = probability[p] >= threshold ? 1 : -1;
      adj[rp.a].emplace_back(rp.b, vote);
      adj[rp.b].emplace_back(rp.a, vote);
    }
  }
};

double Objective(const VoteGraph& graph,
                 const std::vector<uint32_t>& cluster_of) {
  double total = 0.0;
  for (uint32_t r = 0; r < graph.adj.size(); ++r) {
    for (const auto& [nb, vote] : graph.adj[r]) {
      if (nb < r) continue;  // count each pair once
      bool together = cluster_of[r] == cluster_of[nb];
      total += together ? vote : -vote;
    }
  }
  return total;
}

std::vector<uint32_t> PivotPass(const VoteGraph& graph, Rng* rng) {
  const size_t n = graph.adj.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  constexpr uint32_t kUnassigned = static_cast<uint32_t>(-1);
  std::vector<uint32_t> cluster_of(n, kUnassigned);
  uint32_t next_cluster = 0;
  for (uint32_t pivot : order) {
    if (cluster_of[pivot] != kUnassigned) continue;
    uint32_t c = next_cluster++;
    cluster_of[pivot] = c;
    for (const auto& [nb, vote] : graph.adj[pivot]) {
      if (vote > 0 && cluster_of[nb] == kUnassigned) cluster_of[nb] = c;
    }
  }
  return cluster_of;
}

/// Greedy local moves: relocate each record to the adjacent cluster where
/// its votes agree most (or to a singleton when every cluster is net
/// negative). Returns true when any move was made.
bool RefineSweep(const VoteGraph& graph, std::vector<uint32_t>* cluster_of,
                 uint32_t* next_cluster) {
  bool moved = false;
  std::unordered_map<uint32_t, int> score;
  for (uint32_t r = 0; r < graph.adj.size(); ++r) {
    score.clear();
    for (const auto& [nb, vote] : graph.adj[r]) {
      score[(*cluster_of)[nb]] += vote;
    }
    uint32_t current = (*cluster_of)[r];
    // Own-cluster score must not count the record itself (it has no self
    // edge, so the map is already correct).
    int best_score = 0;  // singleton baseline
    uint32_t best_cluster = static_cast<uint32_t>(-1);
    for (const auto& [c, s] : score) {
      if (s > best_score) {
        best_score = s;
        best_cluster = c;
      }
    }
    int current_score = 0;
    auto it = score.find(current);
    if (it != score.end()) current_score = it->second;
    if (best_score > current_score) {
      (*cluster_of)[r] = best_cluster == static_cast<uint32_t>(-1)
                             ? (*next_cluster)++
                             : best_cluster;
      moved = true;
    } else if (best_score <= 0 && current_score < 0) {
      // Everything is net negative: isolate.
      (*cluster_of)[r] = (*next_cluster)++;
      moved = true;
    }
  }
  return moved;
}

std::vector<uint32_t> Densify(const std::vector<uint32_t>& labels) {
  std::unordered_map<uint32_t, uint32_t> remap;
  std::vector<uint32_t> out(labels.size());
  uint32_t next = 0;
  for (size_t r = 0; r < labels.size(); ++r) {
    auto [it, inserted] = remap.emplace(labels[r], next);
    if (inserted) ++next;
    out[r] = it->second;
  }
  return out;
}

}  // namespace

Result<CorrelationClusteringResult> CorrelationCluster(
    size_t num_records, const PairSpace& pairs,
    const std::vector<double>& pair_probability,
    const CorrelationClusteringOptions& options, const ExecContext& ctx) {
  GTER_CHECK(pair_probability.size() == pairs.size());
  GTER_CHECK(options.restarts >= 1);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer total_timer(ctx.metrics, ctx.trace, "cluster/total");
  VoteGraph graph(num_records, pairs, pair_probability,
                  options.together_threshold);

  CorrelationClusteringResult best;
  best.objective = -1e300;
  Rng master(options.seed);
  for (size_t restart = 0; restart < options.restarts; ++restart) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    ScopedTraceSpan restart_span(
        ctx.trace, "cluster/restart", "cluster",
        TraceArg{"restart", static_cast<double>(restart)});
    Rng rng = master.Fork(restart);
    std::vector<uint32_t> labels = PivotPass(graph, &rng);
    uint32_t next_cluster = 0;
    for (uint32_t l : labels) next_cluster = std::max(next_cluster, l + 1);
    for (size_t sweep = 0; sweep < options.refine_sweeps; ++sweep) {
      if (!RefineSweep(graph, &labels, &next_cluster)) break;
    }
    double objective = Objective(graph, labels);
    if (objective > best.objective) {
      best.objective = objective;
      best.cluster_of = std::move(labels);
    }
  }
  best.cluster_of = Densify(best.cluster_of);
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("cluster/restarts", options.restarts);
  }
  return best;
}

}  // namespace gter
