#include "gter/core/clusterer.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <utility>

#include "gter/common/metrics.h"
#include "gter/common/status.h"
#include "gter/core/correlation_clustering.h"
#include "gter/graph/union_find.h"

namespace gter {
namespace {

constexpr uint32_t kUnset = static_cast<uint32_t>(-1);
/// Edge-scan batch between cancellation polls.
constexpr size_t kPollBatch = 8192;

void ValidateProblem(const ClusterProblem& problem) {
  GTER_CHECK(problem.pairs != nullptr);
  GTER_CHECK(problem.pair_probability != nullptr);
  GTER_CHECK(problem.pair_probability->size() == problem.pairs->size());
  GTER_CHECK(problem.source_of == nullptr || problem.source_of->empty() ||
             problem.source_of->size() == problem.num_records);
}

size_t CountClusters(const std::vector<uint32_t>& labels) {
  uint32_t next = 0;
  for (uint32_t l : labels) next = std::max(next, l + 1);
  return next;
}

/// Transitive closure of p ≥ η edges.
Result<std::vector<uint32_t>> ConnectedComponents(const ClusterProblem& problem,
                                                  const ExecContext& ctx) {
  UnionFind uf(problem.num_records);
  const PairSpace& pairs = *problem.pairs;
  for (PairId p = 0; p < pairs.size(); ++p) {
    if (p % kPollBatch == 0) GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    if ((*problem.pair_probability)[p] >= problem.eta) {
      uf.Union(pairs.pair(p).a, pairs.pair(p).b);
    }
  }
  return uf.ComponentLabels();
}

/// CorrelationCluster at default options with the together-threshold at
/// the problem's η (the differential suite pins the output bitwise against
/// the direct call).
Result<std::vector<uint32_t>> Correlation(const ClusterProblem& problem,
                                          const ExecContext& ctx) {
  CorrelationClusteringOptions options;
  options.together_threshold = problem.eta;
  Result<CorrelationClusteringResult> run =
      CorrelationCluster(problem.num_records, *problem.pairs,
                         *problem.pair_probability, options, ctx);
  if (!run.ok()) return run.status();
  return std::move(run).value().cluster_of;
}

/// Unique mapping, the clean-clean matching endgame (Papadakis et al.,
/// arxiv 2112.14030): restrict the p ≥ η edges to cross-source ones, then
/// accept them greedily by weight while both endpoints are still free.
/// Every record ends up with ≤ 1 partner, so the bipartite contract holds
/// by construction.
Result<std::vector<uint32_t>> UniqueMapping(const ClusterProblem& problem,
                                            const ExecContext& ctx) {
  const PairSpace& pairs = *problem.pairs;
  const std::vector<double>& prob = *problem.pair_probability;
  const std::vector<uint32_t>* sources =
      (problem.source_of != nullptr && !problem.source_of->empty())
          ? problem.source_of
          : nullptr;

  // Eligible edges: above threshold, cross-source when sources are known.
  std::vector<PairId> eligible;
  for (PairId p = 0; p < pairs.size(); ++p) {
    if (p % kPollBatch == 0) GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    if (prob[p] < problem.eta) continue;
    const RecordPair& rp = pairs.pair(p);
    if (sources != nullptr && (*sources)[rp.a] == (*sources)[rp.b]) continue;
    eligible.push_back(p);
  }
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());

  // Greedy matching by weight descending, pair id ascending.
  std::stable_sort(eligible.begin(), eligible.end(),
                   [&prob](PairId x, PairId y) {
                     if (prob[x] != prob[y]) return prob[x] > prob[y];
                     return x < y;
                   });
  std::vector<RecordId> partner(problem.num_records, kInvalidRecordId);
  size_t scanned = 0;
  for (PairId p : eligible) {
    if (++scanned % kPollBatch == 0) GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    const RecordPair& rp = pairs.pair(p);
    if (partner[rp.a] != kInvalidRecordId ||
        partner[rp.b] != kInvalidRecordId) {
      continue;
    }
    partner[rp.a] = rp.b;
    partner[rp.b] = rp.a;
  }

  // Matched pairs become 2-record entities, everything else singletons.
  std::vector<uint32_t> labels(problem.num_records, kUnset);
  uint32_t next = 0;
  for (RecordId r = 0; r < problem.num_records; ++r) {
    if (labels[r] != kUnset) continue;
    labels[r] = next;
    if (partner[r] != kInvalidRecordId) labels[partner[r]] = next;
    ++next;
  }
  return labels;
}

// ---------------------------------------------------------------------------
// Graph-based hierarchical record clustering (Ebeid & Talburt):
// average-linkage agglomeration over the similarity graph. link(A, B) =
// Σ w(a, b) / (|A|·|B|) over candidate edges between the clusters (absent
// edges count 0); merge the best-linked pair while link ≥ merge_threshold.
//
// Cluster ids are never reused (a merge mints a fresh id), so the weight
// between two existing ids is immutable — a heap entry is stale exactly
// when one of its ids is dead, which makes lazy invalidation sound.
Result<std::vector<uint32_t>> Hierarchical(const ClusterProblem& problem,
                                           double merge_threshold,
                                           const ExecContext& ctx) {
  const size_t n = problem.num_records;
  const PairSpace& pairs = *problem.pairs;
  const std::vector<double>& prob = *problem.pair_probability;

  // Candidate heap entry: average link between two live clusters. Ties
  // break on the clusters' representative records (smallest member), so
  // the merge order — and with it the dendrogram cut — is deterministic.
  struct Link {
    double link;
    RecordId rep_u, rep_v;  // rep_u < rep_v
    uint32_t u, v;          // cluster ids
  };
  struct LinkLess {
    bool operator()(const Link& x, const Link& y) const {
      if (x.link != y.link) return x.link < y.link;
      if (x.rep_u != y.rep_u) return x.rep_u > y.rep_u;
      return x.rep_v > y.rep_v;
    }
  };
  std::priority_queue<Link, std::vector<Link>, LinkLess> heap;

  std::vector<char> alive(n, 1);
  std::vector<uint32_t> size(n, 1);
  std::vector<RecordId> rep(n);
  // Total edge weight to each adjacent live cluster, by cluster id.
  std::vector<std::unordered_map<uint32_t, double>> weight(n);
  for (RecordId r = 0; r < n; ++r) rep[r] = r;

  size_t scanned = 0;
  for (PairId p = 0; p < pairs.size(); ++p) {
    if (++scanned % kPollBatch == 0) GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    const RecordPair& rp = pairs.pair(p);
    weight[rp.a][rp.b] = prob[p];
    weight[rp.b][rp.a] = prob[p];
    heap.push(Link{prob[p], rp.a, rp.b, rp.a, rp.b});
  }

  UnionFind uf(n);
  while (!heap.empty()) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    Link top = heap.top();
    heap.pop();
    if (!alive[top.u] || !alive[top.v]) continue;  // stale entry
    if (top.link < merge_threshold) break;  // heap max: nothing merges
    // Merge u and v into a fresh cluster.
    const uint32_t merged = static_cast<uint32_t>(weight.size());
    alive[top.u] = 0;
    alive[top.v] = 0;
    alive.push_back(1);
    size.push_back(size[top.u] + size[top.v]);
    rep.push_back(std::min(rep[top.u], rep[top.v]));
    uf.Union(rep[top.u], rep[top.v]);
    std::unordered_map<uint32_t, double> combined;
    for (uint32_t old : {top.u, top.v}) {
      for (const auto& [neighbor, w] : weight[old]) {
        if (!alive[neighbor]) continue;
        combined[neighbor] += w;
      }
      weight[old] = {};
    }
    for (const auto& [neighbor, w] : combined) {
      weight[neighbor][merged] = w;
      const double link =
          w / (static_cast<double>(size[merged]) * size[neighbor]);
      const RecordId ra = rep[merged];
      const RecordId rb = rep[neighbor];
      heap.push(Link{link, std::min(ra, rb), std::max(ra, rb), merged,
                     neighbor});
    }
    weight.push_back(std::move(combined));
  }
  return uf.ComponentLabels();
}

/// The labels of endgame `kind`. Every kind polls at entry and runs under
/// a `cluster/total` timer; CorrelationCluster does both itself.
Result<std::vector<uint32_t>> RunEndgame(ClustererKind kind,
                                         const ClusterProblem& problem,
                                         const ClustererOptions& options,
                                         const ExecContext& ctx) {
  if (kind == ClustererKind::kCorrelation) return Correlation(problem, ctx);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer timer(ctx.metrics, ctx.trace, "cluster/total");
  if (kind == ClustererKind::kConnectedComponents) {
    return ConnectedComponents(problem, ctx);
  }
  if (kind == ClustererKind::kUniqueMapping) return UniqueMapping(problem, ctx);
  return Hierarchical(problem, options.merge_threshold, ctx);
}

struct KindEntry {
  ClustererKind kind;
  const char* name;
};

constexpr KindEntry kKinds[] = {
    {ClustererKind::kConnectedComponents, "connected_components"},
    {ClustererKind::kCorrelation, "correlation"},
    {ClustererKind::kUniqueMapping, "unique_mapping"},
    {ClustererKind::kHierarchical, "hierarchical"},
};

}  // namespace

const char* ClustererKindName(ClustererKind kind) {
  for (const KindEntry& entry : kKinds) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

Result<ClustererKind> ParseClustererKind(const std::string& name) {
  std::string valid;
  for (const KindEntry& entry : kKinds) {
    if (name == entry.name) return entry.kind;
    if (!valid.empty()) valid += ", ";
    valid += entry.name;
  }
  return Status::InvalidArgument("unknown clusterer '" + name +
                                 "' (valid: " + valid + ")");
}

const std::vector<ClustererKind>& AllClustererKinds() {
  static const std::vector<ClustererKind>* kinds = [] {
    auto* all = new std::vector<ClustererKind>();
    for (const KindEntry& entry : kKinds) all->push_back(entry.kind);
    return all;
  }();
  return *kinds;
}

Result<Clustering> Cluster(ClustererKind kind, const ClusterProblem& problem,
                           const ClustererOptions& options,
                           const ExecContext& ctx) {
  ValidateProblem(problem);
  Result<std::vector<uint32_t>> labels =
      RunEndgame(kind, problem, options, ctx);
  if (!labels.ok()) return labels.status();
  Clustering out;
  out.cluster_of = std::move(labels).value();
  out.num_clusters = CountClusters(out.cluster_of);
  if (ctx.metrics != nullptr) ctx.metrics->AddCounter("cluster/endgame_runs");
  return out;
}

}  // namespace gter
