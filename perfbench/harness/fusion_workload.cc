// fusion_sparse / fusion_dense: the paper's Table III quantity (one full
// FusionPipeline::Run) with Table II's decision F1 beside it, single
// threaded, on a CSV the harness generates from the seed.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gter/core/fusion.h"
#include "gter/datagen/datagen.h"
#include "gter/er/csv.h"
#include "gter/er/preprocess.h"
#include "gter/eval/confusion.h"
#include "gter/common/metrics.h"
#include "harness/bench.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

// Set-ups before each timed repetition; setup_s is the median of all of
// them (one set-up is 25-60 ms, too short to report alone).
constexpr int kSetupsPerRep = 3;

struct FusionSpec {
  gter::BenchmarkKind kind;
  double scale;
  uint32_t sources;
};

// Product at scale 1.0: 2 sources, 2,173 records, ~70k pairs, density well
// under the 0.25 engine switch, so kAuto runs the masked CSR product.
// Paper at scale 0.5: 933 records, ~115k pairs, density above 0.25, so
// kAuto runs dense GEMM.
FusionSpec SpecFor(const std::string& workload) {
  if (workload == "fusion_dense") return {gter::BenchmarkKind::kPaper, 0.5, 1};
  return {gter::BenchmarkKind::kProduct, 1.0, 2};
}

struct LoadedSetup {
  std::unique_ptr<gter::Dataset> dataset;
  gter::GroundTruth truth;
  std::unique_ptr<gter::FusionPipeline> pipeline;  // refers to *dataset
};

// Timing and layer split of one traced Run.
struct TracedRep {
  double wall_s = 0.0;
  double iter_s = 0.0;
  double cliquerank_s = 0.0;
  double endgame_s = 0.0;
  size_t sweeps = 0;
  size_t capped_rounds = 0;
  uint64_t matrix_steps = 0;
  bool dense = false;
};

}  // namespace

RunOutput RunFusionWorkload(const RunArgs& args) {
  RunOutput out;
  const FusionSpec spec = SpecFor(args.workload);
  const gter::FusionConfig config;

  const std::string csv =
      args.workdir + "/" + args.workload + "-" + std::to_string(args.seed) + ".csv";
  {
    // The corpus in record order shuffled by the run seed.
    gter::GeneratedDataset gen =
        gter::GenerateBenchmark(spec.kind, spec.scale, kCorpusSeed);
    gter::Status saved = gter::SaveDatasetCsv(csv, gen.dataset, gen.truth);
    auto rows = saved.ok() ? gter::ReadCsvFile(csv)
                           : gter::Result<std::vector<std::vector<std::string>>>(saved);
    if (rows.ok()) {
      ShuffleRows(&rows.value(), args.seed);
      saved = gter::WriteCsvFile(csv, rows.value());
    }
    if (!saved.ok() || !rows.ok()) {
      out.problems.push_back("cannot write " + csv);
      return out;
    }
  }

  // Set-up: CSV load + frequent-term removal + pipeline construction (pair
  // space and term-pair graph). Every repetition runs on a fresh set-up, and
  // the set-ups are spread over the run, so setup_s samples the same host
  // conditions as the runs.
  LoadedSetup setup;
  std::vector<double> setup_s, load_s, build_s;
  auto set_up = [&](bool timed) {
    ++out.attempted;
    setup.pipeline.reset();
    const int64_t t0 = NowNs();
    auto loaded = gter::LoadDatasetCsv(csv, args.workload, spec.sources);
    if (!loaded.ok()) {
      ++out.failed;
      out.problems.push_back("load: " + loaded.status().ToString());
      return false;
    }
    setup.dataset =
        std::make_unique<gter::Dataset>(std::move(loaded.value().first));
    setup.truth = std::move(loaded.value().second);
    gter::RemoveFrequentTerms(setup.dataset.get());
    const int64_t t1 = NowNs();
    setup.pipeline =
        std::make_unique<gter::FusionPipeline>(*setup.dataset, config);
    const int64_t t2 = NowNs();
    if (timed) {
      load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      build_s.push_back(static_cast<double>(t2 - t1) / 1e9);
      setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    }
    return true;
  };

  // One untimed warm-up (set-up and Run), then timed repetitions until the
  // window closes. Traced runs alternate untraced and traced repetitions,
  // so the tracing overhead is measured under the same host conditions.
  const int64_t window_start = NowNs();
  if (!set_up(false)) return out;
  ++out.attempted;
  auto warm = setup.pipeline->Run();
  if (!warm.ok()) {
    ++out.failed;
    out.problems.push_back("warm-up run: " + warm.status().ToString());
    return out;
  }
  const gter::FusionResult& reference = warm.value();
  const uint64_t digest = FusionDigest(reference.matches, reference.cluster_of,
                                       reference.pair_probability);

  const size_t min_reps = args.trace ? 2 : 3;
  std::vector<double> untraced_s;
  std::vector<TracedRep> traced;
  double last_rep_s = static_cast<double>(NowNs() - window_start) / 1e9;
  for (size_t rep = 0;; ++rep) {
    const int64_t rep_start = NowNs();
    const double elapsed = static_cast<double>(rep_start - window_start) / 1e9;
    if (rep >= min_reps && elapsed + last_rep_s > args.seconds) break;
    for (int i = 0; i < kSetupsPerRep; ++i) {
      if (!set_up(true)) return out;
    }
    const bool traced_rep = args.trace && rep % 2 == 1;
    gter::MetricsRegistry registry;
    gter::ExecContext ctx;
    if (traced_rep) ctx.metrics = &registry;
    ++out.attempted;
    const int64_t t0 = NowNs();
    auto run = setup.pipeline->Run(ctx);
    const int64_t t1 = NowNs();
    const double run_s = static_cast<double>(t1 - t0) / 1e9;
    last_rep_s = static_cast<double>(t1 - rep_start) / 1e9;
    if (!run.ok()) {
      ++out.failed;
      out.problems.push_back("run: " + run.status().ToString());
      continue;
    }
    const gter::FusionResult& r = run.value();
    if (FusionDigest(r.matches, r.cluster_of, r.pair_probability) != digest) {
      out.problems.push_back("repetition " + std::to_string(rep) +
                             " differs from the warm-up result");
    }
    if (!traced_rep) {
      untraced_s.push_back(run_s);
      continue;
    }
    TracedRep t;
    t.wall_s = run_s;
    for (const gter::FusionRoundStats& round : r.round_stats) {
      t.iter_s += round.iter_seconds;
      t.cliquerank_s += round.probability_seconds;
      t.sweeps += round.iter_iterations;
      if (round.iter_iterations >= config.iter.max_iterations) {
        ++t.capped_rounds;
      }
    }
    if (!r.round_stats.empty()) {
      t.endgame_s = r.total_seconds - r.round_stats.back().cumulative_seconds;
    }
    t.matrix_steps = registry.Counter("cliquerank/steps");
    t.dense = registry.Counter("cliquerank/engine_dense") > 0;
    traced.push_back(t);
  }

  // Quality: decision F1 against the ground truth, recomputed every run.
  const std::vector<bool> labels =
      gter::LabelPairs(setup.pipeline->pairs(), setup.truth);
  const gter::Confusion confusion = gter::EvaluatePairPredictions(
      setup.pipeline->pairs(), reference.matches, labels,
      gter::TotalPositives(*setup.dataset, setup.truth));
  const double f1 = confusion.F1();
  if (!(f1 > 0.0)) out.problems.push_back("decision F1 is 0");

  const double run_ms = Median(untraced_s) * 1e3;
  out.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"op_p50_ms", run_ms, "ms"},
      {"quality", f1, "ratio"},
      {"peak_rss_mb", PeakRssMb(0), "MB"},
  };
  out.diagnostics = {
      {"repetitions", static_cast<double>(untraced_s.size() + traced.size()),
       "count"},
      {"records", static_cast<double>(setup.dataset->size()), "count"},
      {"pairs", static_cast<double>(setup.pipeline->pairs().size()), "count"},
  };

  if (args.trace && traced.empty()) {
    out.problems.push_back("no traced repetition completed");
  } else if (args.trace) {
    std::vector<double> wall, iter, cr, endgame, unattributed;
    for (const TracedRep& t : traced) {
      wall.push_back(t.wall_s);
      iter.push_back(t.iter_s);
      cr.push_back(t.cliquerank_s);
      endgame.push_back(t.endgame_s);
      unattributed.push_back(t.wall_s - t.iter_s - t.cliquerank_s - t.endgame_s);
    }
    const TracedRep& first = traced.front();
    const double cliquerank_s = Median(cr);
    // Work per CliqueRank matrix step: a dense step is one n x n x n GEMM
    // (2n^3 flops); a masked step gathers deg(k) entries for each of the
    // deg(k) rows that reach record k, i.e. sum_k deg(k)^2 multiply-adds.
    const double n = static_cast<double>(setup.dataset->size());
    std::vector<double> degree(setup.dataset->size(), 0.0);
    const gter::PairSpace& pairs = setup.pipeline->pairs();
    for (size_t p = 0; p < pairs.size(); ++p) {
      degree[pairs.pair(p).a] += 1;
      degree[pairs.pair(p).b] += 1;
    }
    double sum_deg2 = 0.0;
    for (double d : degree) sum_deg2 += d * d;
    const double steps = static_cast<double>(first.matrix_steps);
    const double gflops =
        first.dense ? 2.0 * n * n * n * steps / cliquerank_s / 1e9 : 0.0;
    const double gmadds =
        first.dense ? 0.0 : sum_deg2 * steps / cliquerank_s / 1e9;
    EmitPerLayer(
        {
            {"er.load_s", Median(load_s)},
            {"core.build_s", Median(build_s)},
            {"er.pairs", static_cast<double>(setup.pipeline->pairs().size())},
            {"core.iter_s", Median(iter)},
            {"core.iter_sweeps", static_cast<double>(first.sweeps)},
            {"core.iter_capped_rounds", static_cast<double>(first.capped_rounds)},
            {"core.cliquerank_s", cliquerank_s},
            {"matrix.gemm_gflops", gflops},
            {"matrix.masked_gmadds", gmadds},
            {"core.endgame_s", Median(endgame)},
            {"fusion.unattributed_s", Median(unattributed)},
            {"trace.overhead_share", Median(wall) / Median(untraced_s) - 1.0},
        },
        &out);
  }
  std::remove(csv.c_str());
  return out;
}

}  // namespace perfbench
