// The incremental engine contract (DESIGN.md §4g):
//
//  1. Incremental-vs-batch differential: N base records built in one shot
//     plus K records streamed in RANDOM order land on the same resolution
//     as a one-shot batch build over all N+K — identical clusterings and
//     match sets, term weights within 1e-10 — because both arms drain the
//     same prob ≡ 1 logistic ITER map to its unique positive fixed point.
//     Pinned serial and with an 8-thread pool (and the pooled run is
//     bitwise identical to the serial one).
//  2. Cancellation: every new entry point (BuildBatch, Ingest,
//     IngestExisting, Converge, RunIterDirty) polls at entry — k = 0 always
//     cancels — and a cancelled converge is resumable: Converge() recovers
//     and the final weights match the uncancelled run. A cancel at any poll
//     of Ingest leaves the next ingest able to run.
//  3. The state's term ↔ pair graph, grown record by record, is
//     structure-for-structure BipartiteGraph::Build over the same dataset
//     and pairs, down to its shared-term set ids.
//  4. After every build and ingest, the served partition is exactly the
//     connected components of matches(), although the sparse decision
//     pass rebuilds the clusters only when a decision flipped.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bipartite_graph_equal.h"
#include "gter/common/exec_context.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/core/resolver_state.h"
#include "gter/datagen/datagen.h"
#include "gter/graph/bipartite_graph.h"
#include "gter/graph/union_find.h"

namespace gter {
namespace {

// Small unpreprocessed world: streaming re-tokenizes raw text, so both
// arms must see full term sets (RemoveFrequentTerms is a batch-global
// operation; the serving layer applies it before the state is built).
Dataset MakeData() {
  return GenerateBenchmark(BenchmarkKind::kRestaurant, 0.12, 11).dataset;
}

// Rebuilds `src` with records re-added (re-tokenized) in `order`.
Dataset Reorder(const Dataset& src, const std::vector<RecordId>& order) {
  Dataset out(src.name(), src.num_sources());
  for (RecordId r : order) {
    const Record& rec = src.record(r);
    out.AddRecord(rec.source, rec.raw_text, rec.fields);
  }
  return out;
}

// Stream order: first `base` records in id order, the tail shuffled.
std::vector<RecordId> StreamOrder(size_t n, size_t base, uint64_t seed) {
  std::vector<RecordId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<RecordId>(i);
  std::vector<RecordId> tail(order.begin() + base, order.end());
  Rng rng(seed);
  rng.Shuffle(&tail);
  std::copy(tail.begin(), tail.end(), order.begin() + base);
  return order;
}

// Streamed arm: batch-build the first `base` stream positions, ingest the
// rest one by one through the replay path.
void RunStream(ResolverState* state, size_t base, const ExecContext& ctx) {
  ASSERT_TRUE(state->BuildBatch(ctx, base).ok());
  while (state->num_records() < state->dataset().size()) {
    auto ingest = state->IngestExisting(ctx);
    ASSERT_TRUE(ingest.ok()) << ingest.status();
  }
}

// Match set as canonical (a, b) pairs in ORIGINAL record ids; `to_orig`
// maps the state's record ids back (identity for the batch arm).
std::vector<std::pair<RecordId, RecordId>> MatchSet(
    const ResolverState& state, const std::vector<RecordId>& to_orig) {
  std::vector<std::pair<RecordId, RecordId>> out;
  for (PairId p = 0; p < state.pairs().size(); ++p) {
    if (!state.matches()[p]) continue;
    RecordId a = to_orig[state.pairs().pair(p).a];
    RecordId b = to_orig[state.pairs().pair(p).b];
    if (a > b) std::swap(a, b);
    out.emplace_back(a, b);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Asserts the two arms resolved identically: same vocabulary (as a set),
// per-term weights within `tol` (matched by term STRING — the arms intern
// in different orders), identical match sets and identical partitions in
// original record ids.
void ExpectArmsAgree(const ResolverState& batch, const ResolverState& stream,
                     const std::vector<RecordId>& order, double tol) {
  const Dataset& a = batch.dataset();
  const Dataset& b = stream.dataset();
  ASSERT_EQ(a.vocabulary().size(), b.vocabulary().size());
  ASSERT_EQ(batch.pairs().size(), stream.pairs().size());

  double max_drift = 0.0;
  for (TermId ta = 0; ta < a.vocabulary().size(); ++ta) {
    const TermId tb = b.vocabulary().Lookup(a.vocabulary().TermOf(ta));
    ASSERT_NE(tb, kInvalidTermId);
    max_drift = std::max(
        max_drift,
        std::fabs(batch.term_weights()[ta] - stream.term_weights()[tb]));
  }
  EXPECT_LE(max_drift, tol);

  std::vector<RecordId> identity(a.size());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<RecordId>(i);
  }
  EXPECT_EQ(MatchSet(batch, identity), MatchSet(stream, order));

  // Partition equivalence over every record pair, through the stream
  // permutation: pos[orig] = stream id.
  std::vector<RecordId> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  ASSERT_EQ(batch.num_records(), stream.num_records());
  EXPECT_EQ(batch.num_clusters(), stream.num_clusters());
  const auto& ca = batch.cluster_of();
  const auto& cb = stream.cluster_of();
  for (RecordId r = 0; r < a.size(); ++r) {
    for (RecordId q = r + 1; q < a.size(); ++q) {
      EXPECT_EQ(ca[r] == ca[q], cb[pos[r]] == cb[pos[q]])
          << "records " << r << " vs " << q;
    }
  }
}

TEST(IncrementalDifferentialTest, StreamedRandomOrderMatchesBatchSerial) {
  Dataset data = MakeData();
  const size_t n = data.size();
  const size_t base = (n * 2) / 3;
  const std::vector<RecordId> order = StreamOrder(n, base, 99);

  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch().ok());

  Dataset streamed_data = Reorder(data, order);
  ResolverState stream(&streamed_data);
  RunStream(&stream, base, DefaultExecContext());

  ExpectArmsAgree(batch, stream, order, 1e-10);
}

TEST(IncrementalDifferentialTest, StreamedMatchesBatchEightThreads) {
  Dataset data = MakeData();
  const size_t n = data.size();
  const size_t base = (n * 2) / 3;
  const std::vector<RecordId> order = StreamOrder(n, base, 1234);

  ThreadPool pool(8);
  const ExecContext ctx = ExecContext::WithPool(&pool);

  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch(ctx).ok());

  Dataset streamed_data = Reorder(data, order);
  ResolverState stream(&streamed_data);
  RunStream(&stream, base, ctx);

  ExpectArmsAgree(batch, stream, order, 1e-10);

  // Thread-count determinism: the pooled streamed arm is bitwise the
  // serial streamed arm.
  Dataset serial_data = Reorder(data, order);
  ResolverState serial(&serial_data);
  RunStream(&serial, base, DefaultExecContext());
  ASSERT_EQ(serial.term_weights().size(), stream.term_weights().size());
  for (size_t t = 0; t < serial.term_weights().size(); ++t) {
    ASSERT_EQ(serial.term_weights()[t], stream.term_weights()[t]) << t;
  }
  EXPECT_EQ(serial.pair_scores(), stream.pair_scores());
  EXPECT_EQ(serial.cluster_of(), stream.cluster_of());
}

TEST(IncrementalDifferentialTest, ServingIngestPathMatchesBatch) {
  // The Ingest(source, raw_text) serving path: batch over N records vs
  // BuildBatch(N-5) plus five tokenizing ingests.
  Dataset data = MakeData();
  const size_t n = data.size();

  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch().ok());

  std::vector<RecordId> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<RecordId>(i);
  Dataset prefix = Reorder(data, identity);
  // Drop the last five records, re-ingest them through the text path.
  Dataset head(data.name(), data.num_sources());
  for (size_t i = 0; i + 5 < n; ++i) {
    head.AddRecord(data.record(i).source, data.record(i).raw_text,
                   data.record(i).fields);
  }
  ResolverState stream(&head);
  ASSERT_TRUE(stream.BuildBatch().ok());
  for (size_t i = n - 5; i < n; ++i) {
    auto ingest =
        stream.Ingest(data.record(i).source, data.record(i).raw_text);
    ASSERT_TRUE(ingest.ok()) << ingest.status();
    EXPECT_EQ(ingest.value().record, static_cast<RecordId>(i));
    EXPECT_LT(ingest.value().cluster, stream.num_clusters());
    EXPECT_GE(ingest.value().cluster_size, 1u);
  }
  ExpectArmsAgree(batch, stream, identity, 1e-10);
}

TEST(IncrementalCancelTest, EveryEntryPointCancelsAtEntry) {
  Dataset data = MakeData();
  CancelToken token;
  ExecContext ctx;
  ctx.cancel = &token;

  {
    Dataset d = MakeData();
    ResolverState state(&d);
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(state.BuildBatch(ctx).code(), StatusCode::kCancelled);
  }
  {
    Dataset d = MakeData();
    ResolverState state(&d);
    ASSERT_TRUE(state.BuildBatch().ok());
    token.Reset();
    token.CancelAfterPolls(0);
    const size_t before = d.size();
    auto r = state.Ingest(0, "cancelled ingest never lands", ctx);
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    // Entry poll fires BEFORE the dataset mutates.
    EXPECT_EQ(d.size(), before);
    token.Reset();
    EXPECT_TRUE(state.Converge(ctx).ok());
  }
  {
    Dataset d = MakeData();
    ResolverState state(&d);
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(state.IngestExisting(ctx).status().code(),
              StatusCode::kCancelled);
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(state.Converge(ctx).code(), StatusCode::kCancelled);
  }
  {
    BipartiteGraph graph;
    graph.EnsureTerms(4);
    std::vector<double> x(4, 0.5);
    std::vector<double> s;
    IterDirtyScratch scratch;
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(
        RunIterDirty(graph, {0, 1}, &x, &s, &scratch, ctx).status().code(),
        StatusCode::kCancelled);
  }
}

TEST(IncrementalCancelTest, CancelledConvergeResumesToSameFixedPoint) {
  // Sweep cancel points through the BuildBatch converge; every cancelled
  // run must recover via Converge() to bitwise the uncancelled weights.
  Dataset reference_data = MakeData();
  ResolverState reference(&reference_data);
  ASSERT_TRUE(reference.BuildBatch().ok());

  for (uint64_t k = 0; k < 24; k += 3) {
    Dataset d = MakeData();
    ResolverState state(&d);
    CancelToken token;
    ExecContext ctx;
    ctx.cancel = &token;
    token.CancelAfterPolls(k);
    Status status = state.BuildBatch(ctx);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kCancelled) << "k=" << k;
      token.Reset();
      // BuildBatch resumes from the ingest horizon; a converge that was
      // cancelled mid-flight re-runs with a full frontier (the escape
      // hatch doubles as the resume path). Converge() alone also works
      // once the structural loop completed.
      ASSERT_TRUE(state.BuildBatch(ctx).ok()) << "k=" << k;
    }
    // A resume re-converges from a mid-flight state, so its floating-point
    // trajectory differs from the uncancelled run — the contract is the
    // 1e-10 drift bound (same fixed point), not bitwise equality.
    ASSERT_EQ(state.term_weights().size(), reference.term_weights().size());
    for (size_t t = 0; t < state.term_weights().size(); ++t) {
      ASSERT_NEAR(state.term_weights()[t], reference.term_weights()[t],
                  1e-10)
          << "k=" << k << " t=" << t;
    }
    ASSERT_EQ(state.cluster_of(), reference.cluster_of()) << "k=" << k;
  }
}

TEST(IncrementalCancelTest, CancelledIngestNeverAbortsTheNextOne) {
  // Sweep a cancel point through Ingest: its entry poll, the converge's
  // entry and its sweeps. A cancel before the append leaves nothing
  // behind; one after it leaves the record committed with its converge
  // pending. Either way the following ingest must succeed, and the stream
  // must still land on the batch fixed point.
  Dataset data = MakeData();
  const size_t n = data.size();
  constexpr size_t kTail = 6;
  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch().ok());
  std::vector<RecordId> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<RecordId>(i);

  for (int64_t k = 0; k < 10; ++k) {
    Dataset head(data.name(), data.num_sources());
    for (size_t i = 0; i + kTail < n; ++i) {
      head.AddRecord(data.record(i).source, data.record(i).raw_text,
                     data.record(i).fields);
    }
    ResolverState stream(&head);
    ASSERT_TRUE(stream.BuildBatch().ok());
    for (size_t i = n - kTail; i < n; ++i) {
      const Record& rec = data.record(i);
      CancelToken token;
      ExecContext ctx;
      ctx.cancel = &token;
      token.CancelAfterPolls(k);
      auto cancelled = stream.Ingest(rec.source, rec.raw_text, ctx);
      if (!cancelled.ok()) {
        ASSERT_EQ(cancelled.status().code(), StatusCode::kCancelled)
            << "k=" << k;
      }
      // The dataset never runs ahead of the state.
      ASSERT_EQ(stream.num_records(), head.size()) << "k=" << k;
      if (head.size() == i) {
        // Cancelled before the append: ingest the record cleanly.
        auto clean = stream.Ingest(rec.source, rec.raw_text);
        ASSERT_TRUE(clean.ok()) << "k=" << k << ": " << clean.status();
      }
    }
    ASSERT_TRUE(stream.Converge().ok()) << "k=" << k;
    ExpectArmsAgree(batch, stream, identity, 1e-10);
    ASSERT_EQ(stream.cluster_of(), batch.cluster_of()) << "k=" << k;
  }
}

// The partition a from-scratch union-find over `state.matches()` gives,
// labelled as the state promises: dense, stable by smallest member.
struct ReferencePartition {
  std::vector<uint32_t> cluster_of;
  std::vector<std::vector<RecordId>> members;
};

ReferencePartition ComponentsOfMatches(const ResolverState& state) {
  UnionFind uf(state.num_records());
  for (PairId p = 0; p < state.pairs().size(); ++p) {
    if (state.matches()[p]) {
      uf.Union(state.pairs().pair(p).a, state.pairs().pair(p).b);
    }
  }
  ReferencePartition ref;
  ref.cluster_of = uf.ComponentLabels();
  ref.members.resize(uf.num_components());
  for (RecordId r = 0; r < ref.cluster_of.size(); ++r) {
    ref.members[ref.cluster_of[r]].push_back(r);
  }
  return ref;
}

// Checks one successful ingest against the reference partition.
void ExpectIngestMatchesReference(const ResolverState& state,
                                  const IngestStats& stats) {
  const ReferencePartition ref = ComponentsOfMatches(state);
  ASSERT_EQ(state.cluster_of(), ref.cluster_of) << "record " << stats.record;
  ASSERT_EQ(state.cluster_members(), ref.members) << "record " << stats.record;
  EXPECT_EQ(stats.cluster, ref.cluster_of[stats.record]);
  EXPECT_EQ(stats.cluster_size, ref.members[stats.cluster].size());
}

uint64_t RebuildCount(const MetricsRegistry& metrics) {
  return metrics.Timer("resolver_state/rebuild_clusters").count;
}

TEST(IncrementalClusterTest, PartitionIsComponentsOfMatchesAfterEveryIngest) {
  Dataset data = MakeData();
  const size_t n = data.size();
  const size_t base = (n * 2) / 3;
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.metrics = &metrics;

  ResolverState state(&data);
  ASSERT_TRUE(state.BuildBatch(ctx, base).ok());
  {
    const ReferencePartition ref = ComponentsOfMatches(state);
    ASSERT_EQ(state.cluster_of(), ref.cluster_of);
    ASSERT_EQ(state.cluster_members(), ref.members);
  }
  EXPECT_EQ(RebuildCount(metrics), 1u);

  // An ingest "gains" when a pair matches that did not match before (new
  // pairs start unmatched) and "loses" when a matched pair stops matching.
  size_t gained = 0;
  size_t lost = 0;
  std::vector<bool> before = state.matches();
  const size_t cancel_at = base + (n - base) / 2;
  bool cancelled_once = false;
  while (state.num_records() < n) {
    if (!cancelled_once && state.num_records() == cancel_at) {
      // Entry poll of IngestExisting, entry poll of the converge, then the
      // first sweep poll trips: the record is committed, its label pending.
      CancelToken token;
      ExecContext cancel_ctx = ctx;
      cancel_ctx.cancel = &token;
      token.CancelAfterPolls(2);
      auto cancelled = state.IngestExisting(cancel_ctx);
      ASSERT_EQ(cancelled.status().code(), StatusCode::kCancelled);
      ASSERT_EQ(state.num_records(), cancel_at + 1);
      ASSERT_TRUE(state.has_pending_dirty());
      ASSERT_EQ(state.cluster_of().size(), cancel_at);
      cancelled_once = true;
    }
    auto ingest = state.IngestExisting(ctx);
    ASSERT_TRUE(ingest.ok()) << ingest.status();
    // After the cancel, this resumed converge labels both pending records.
    ExpectIngestMatchesReference(state, ingest.value());

    bool gain = false;
    bool loss = false;
    for (PairId p = 0; p < state.pairs().size(); ++p) {
      const bool was = p < before.size() && before[p];
      gain = gain || (state.matches()[p] && !was);
      loss = loss || (!state.matches()[p] && was);
    }
    gained += gain ? 1 : 0;
    lost += loss ? 1 : 0;
    before = state.matches();
  }
  EXPECT_TRUE(cancelled_once);
  EXPECT_GT(gained, 0u);
  EXPECT_GT(lost, 0u);
}

TEST(IncrementalClusterTest, SparsePassRebuildsOnlyWhenADecisionFlips) {
  // Every ingest of the stream above touches most of its hub-heavy pairs,
  // so its flips all come through the dense pass. Here the ingested
  // records share terms only with two small groups that the batch build
  // matched, so each ingest touches a handful of pairs and the sparse pass
  // runs through each of its outcomes.
  Dataset data = MakeData();
  const RecordId first = static_cast<RecordId>(data.size());
  data.AddRecord(0, "qxzv wplorb mfrt");
  data.AddRecord(0, "qxzv wplorb");
  data.AddRecord(0, "kroz vant");
  data.AddRecord(0, "kroz vant");
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.metrics = &metrics;
  // The loss below re-balances three coupled terms slowly, and its converge
  // stays on its worklist all the way: a full sweep would touch every pair.
  ResolverState state(&data);
  ASSERT_TRUE(state.BuildBatch(ctx).ok());
  ASSERT_EQ(state.cluster_of()[first], state.cluster_of()[first + 1]);

  struct Step {
    const char* text;
    bool flips;           // some decision flipped, so the clusters rebuild
    size_t cluster_size;  // of the new record
  };
  const Step steps[] = {
      {"jhkfq zvrtm", false, 1},  // no pair: the next singleton
      {"kroz vant", true, 3},     // joins its group: a gain only
      // A closer copy of "qxzv wplorb mfrt" than "qxzv wplorb": a gain,
      // and "qxzv wplorb" loses its match.
      {"qxzv wplorb mfrt", true, 2},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(step.text);
    const uint64_t rebuilds_before = RebuildCount(metrics);
    auto ingest = state.Ingest(0, step.text, ctx);
    ASSERT_TRUE(ingest.ok()) << ingest.status();
    EXPECT_LT(metrics.Gauge("ingest/last_touched_pairs"),
              static_cast<double>(state.pairs().size()) / 2);
    EXPECT_EQ(RebuildCount(metrics), rebuilds_before + (step.flips ? 1 : 0));
    EXPECT_EQ(ingest.value().cluster_size, step.cluster_size);
    ExpectIngestMatchesReference(state, ingest.value());
  }
  EXPECT_EQ(state.cluster_members()[state.cluster_of()[first + 1]].size(),
            1u);
}

// StructuralIngest's shared-term and N_t bookkeeping against the batch
// builder: batch-build 2/3 of the world, stream the rest, and the state's
// graph must equal BipartiteGraph::Build over the state's own pairs, set
// ids, set term lists, set pairs and term → sets included.
TEST(ResolverStateTest, StreamedGraphMatchesBuild) {
  Dataset data = MakeData();
  ResolverState state(&data);
  RunStream(&state, data.size() * 2 / 3, DefaultExecContext());
  ASSERT_EQ(state.num_records(), data.size());

  const BipartiteGraph& live = state.graph();
  BipartiteGraph built = BipartiteGraph::Build(state.dataset(), state.pairs());
  ExpectSameGraph(built, live);
}

TEST(ResolverStateTest, CountersAndVersionAdvance) {
  Dataset data = MakeData();
  ResolverState state(&data);
  ASSERT_TRUE(state.BuildBatch().ok());
  EXPECT_EQ(state.records_ingested(), 0u);  // batch build is not an ingest
  EXPECT_EQ(state.dirty_reiter_runs(), 1u);
  EXPECT_EQ(state.full_resweeps(), 1u);  // all-dirty → escape hatch fires
  EXPECT_GT(state.last_converge_sweeps(), 0u);
  EXPECT_FALSE(state.has_pending_dirty());
  const uint64_t v = state.version();

  auto ingest = state.Ingest(0, "kabul afghan cuisine west hollywood");
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(state.records_ingested(), 1u);
  EXPECT_EQ(state.dirty_reiter_runs(), 2u);
  EXPECT_GT(state.version(), v);
  EXPECT_EQ(state.num_records(), data.size());
  EXPECT_EQ(state.cluster_of().size(), data.size());
}

}  // namespace
}  // namespace gter
