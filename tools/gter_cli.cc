// gter command-line tool: run the unsupervised entity-resolution pipeline
// on CSV files without writing any C++.
//
// Subcommands:
//   gter_cli generate --kind restaurant --scale 0.5 --out data.csv
//       Synthesize a benchmark dataset (with ground truth) to CSV.
//   gter_cli resolve --in data.csv [--sources 1] [--eta 0.98]
//                    [--rounds 5] [--matches out.csv] [--weights w.csv]
//                    [--clusterer connected_components] [--merge_threshold T]
//                    [--simd scalar|avx512|auto] [--deadline_ms N]
//                    [--incremental]
//       Resolve a CSV dataset; write matched pairs and term weights.
//       --clusterer picks the clustering endgame that turns pairwise
//       probabilities into entities (connected_components, correlation,
//       unique_mapping, hierarchical).
//       --simd=scalar pins the scalar reference kernels; auto picks the
//       best level CPUID reports. The level changes speed only: every
//       kernel is bitwise equal to its scalar twin, so a corpus resolves
//       byte-identically at every level.
//       Ctrl-C (or an elapsed --deadline_ms) cancels the run at the next
//       stage boundary: the partial results seen so far are reported,
//       --metrics_out/--trace_out are still written, and the exit code
//       is 3 (vs 0 success, 1 failure, 2 usage).
//       --incremental resolves through the ResolverState engine instead
//       of the batch fusion rounds (DESIGN.md §4g); the --clusterer
//       endgame then clusters the state's probabilities.
//   gter_cli evaluate --in data.csv [--sources 1] [--matches out.csv]
//       Score a match file against the CSV's ground-truth entity column.
//   gter_cli eval-endgames [--scale 0.25] [--seed 2018] [--rounds 3]
//                          [--eta 0.98] [--merge_threshold 0.5]
//                          [--threads 1] [--out endgames.json]
//                          [--incremental]
//       Run every registered clustering endgame over the three synthetic
//       dataset families (restaurant, product, paper): fusion trains the
//       pairwise probabilities once per family, then each endgame
//       re-clusters them. Prints a table of pairwise precision/recall/F1
//       and wall time per (family, endgame) and writes the same numbers
//       as JSON when --out is given. --incremental trains through the
//       ResolverState engine instead — half the records batch-built, the
//       rest streamed in one at a time — so the endgames re-cluster the
//       live incremental probabilities.
//   gter_cli report run.json
//       Print a per-stage breakdown of one --metrics_out file.
//   gter_cli report baseline.json candidate.json [--regress_ratio 0.10]
//       Diff two --metrics_out files; exit non-zero when a stage timer
//       regressed past the threshold (the CI perf gate).
//   gter_cli client [--host H] [--port P] [--repeat N] <method> [params-json]
//       Send one request to a running gterd and print the JSON result.
//       --repeat sends it N times and prints client-observed p50/p95/p99
//       latency (comparable against the daemon's /metrics percentiles).
//       Exit 3 when the server answers Cancelled/DeadlineExceeded.
//
// Every subcommand takes --log_level=debug|info|warning|error.
//
// The CSV interchange format is the one SaveDatasetCsv writes:
//   entity,source,field...

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gter/gter.h"

namespace gter {
namespace {

// 0 success, 1 failure, 2 usage, 3 cancelled / deadline exceeded.
constexpr int kExitCancelled = 3;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Tripped by the SIGINT handler while resolve runs; the pipeline polls it
// at every stage boundary. CancelToken::Cancel is a relaxed atomic store,
// so it is async-signal-safe.
CancelToken* g_resolve_cancel = nullptr;

void HandleInterrupt(int) {
  if (g_resolve_cancel != nullptr) g_resolve_cancel->Cancel();
}

int RunGenerate(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("kind", "restaurant", "restaurant | product | paper");
  flags.AddDouble("scale", 1.0, "dataset scale (1.0 = paper sizes)");
  flags.AddInt("seed", 2018, "generator seed");
  flags.AddString("out", "dataset.csv", "output CSV path");
  AddLogLevelFlag(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyLogLevelFlag(flags);
  if (!s.ok()) return Fail(s);

  BenchmarkKind kind;
  const std::string& name = flags.GetString("kind");
  if (name == "restaurant") {
    kind = BenchmarkKind::kRestaurant;
  } else if (name == "product") {
    kind = BenchmarkKind::kProduct;
  } else if (name == "paper") {
    kind = BenchmarkKind::kPaper;
  } else {
    return Fail(Status::InvalidArgument("unknown kind '" + name + "'"));
  }
  auto data = GenerateBenchmark(kind, flags.GetDouble("scale"),
                                static_cast<uint64_t>(flags.GetInt("seed")));
  Status write = SaveDatasetCsv(flags.GetString("out"), data.dataset,
                                data.truth);
  if (!write.ok()) return Fail(write);
  std::printf("wrote %zu records (%zu entities) to %s\n", data.dataset.size(),
              data.truth.num_entities(), flags.GetString("out").c_str());
  return 0;
}

int RunResolve(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("in", "dataset.csv", "input CSV (entity,source,field...)");
  flags.AddInt("sources", 1, "number of sources (1 or 2)");
  flags.AddDouble("eta", 0.98, "matching probability threshold");
  flags.AddInt("rounds", 5, "ITER/CliqueRank reinforcement rounds");
  flags.AddDouble("alpha", 20.0, "transition exponent");
  flags.AddInt("steps", 20, "random-walk steps S");
  flags.AddDouble("max_df_ratio", 0.12, "frequent-term removal ratio");
  flags.AddString("clusterer", "connected_components",
                  "clustering endgame: connected_components, correlation, "
                  "unique_mapping or hierarchical");
  flags.AddDouble("merge_threshold", 0.5,
                  "hierarchical endgame: stop merging below this linkage");
  flags.AddString("matches", "matches.csv", "output: matched pairs CSV");
  flags.AddString("weights", "", "output: term weights CSV (optional)");
  flags.AddInt("deadline_ms", 0,
               "cancel the run after this many milliseconds (0 = none)");
  flags.AddBool("incremental", false,
                "resolve through the incremental ResolverState engine "
                "(streaming fixed point, reciprocal-best probabilities)");
  AddCommonStageFlags(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyCommonStageFlags(flags);
  if (s.ok()) s = RequirePositiveFlags(flags, {"rounds", "steps"});
  if (!s.ok()) return Fail(s);

  // The sinks go into the context before the CSV loads, so the loader's
  // dataset counters land with the stage timers.
  std::unique_ptr<MetricsRegistry> metrics;
  if (!flags.GetString("metrics_out").empty()) {
    metrics = std::make_unique<MetricsRegistry>();
    DeclarePipelineMetrics(metrics.get());
  }
  std::unique_ptr<TraceRecorder> trace;
  if (!flags.GetString("trace_out").empty()) {
    SetCurrentThreadTraceName("main");
    trace = std::make_unique<TraceRecorder>();
  }
  // Record which compute path produced this run in both sinks.
  EmitCpuInfo(metrics.get(), trace.get());
  ExecContext ctx;
  ctx.metrics = metrics.get();
  ctx.trace = trace.get();

  auto loaded = LoadDatasetCsv(flags.GetString("in"), "input",
                               static_cast<uint32_t>(flags.GetInt("sources")),
                               ctx);
  if (!loaded.ok()) return Fail(loaded.status());
  auto [dataset, truth] = std::move(loaded).value();

  PreprocessOptions preprocess;
  preprocess.max_df_ratio = flags.GetDouble("max_df_ratio");
  RemoveFrequentTerms(&dataset, preprocess);

  FusionConfig config;
  config.rounds = static_cast<size_t>(flags.GetInt("rounds"));
  config.eta = flags.GetDouble("eta");
  config.cliquerank.alpha = flags.GetDouble("alpha");
  config.cliquerank.max_steps = static_cast<size_t>(flags.GetInt("steps"));
  auto clusterer = ParseClustererKind(flags.GetString("clusterer"));
  if (!clusterer.ok()) return Fail(clusterer.status());
  config.clusterer = clusterer.value();
  config.clusterer_options.merge_threshold =
      flags.GetDouble("merge_threshold");
  const bool incremental = flags.GetBool("incremental");

  // Results are bit-identical for any thread count, so --threads only
  // changes wall-clock time.
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(flags.GetInt("threads"));

  CancelToken cancel;
  if (flags.GetInt("deadline_ms") > 0) {
    cancel.SetTimeout(static_cast<double>(flags.GetInt("deadline_ms")) /
                      1000.0);
  }
  ctx.pool = pool.get();
  ctx.cancel = &cancel;

  // Ctrl-C trips the token; the next stage-boundary poll unwinds the run.
  g_resolve_cancel = &cancel;
  auto previous_handler = std::signal(SIGINT, HandleInterrupt);

  // Either arm fills a FusionResult so the output paths below are shared.
  // The incremental arm resolves through the ResolverState engine
  // (DESIGN.md §4g): same candidate space, streaming-capable fixed point,
  // reciprocal-best probabilities, then the same endgame.
  std::optional<FusionPipeline> pipeline;
  std::optional<ResolverState> state;
  auto execute = [&]() -> Result<FusionResult> {
    if (incremental) {
      Stopwatch watch;
      ResolverStateOptions rs_options;
      rs_options.eta = config.eta;
      state.emplace(&dataset, rs_options);
      GTER_RETURN_IF_ERROR(state->BuildBatch(ctx));
      FusionResult out;
      out.term_weights = state->term_weights();
      out.pair_scores = state->pair_scores();
      out.pair_probability = state->pair_probability();
      out.matches = state->matches();
      // The configured endgame over the state's p, as FusionPipeline::Run
      // runs it over CliqueRank's.
      ClusterProblem problem;
      problem.num_records = dataset.size();
      problem.pairs = &state->pairs();
      problem.pair_probability = &out.pair_probability;
      problem.eta = config.eta;
      std::vector<uint32_t> source_of;
      if (dataset.num_sources() > 1) {
        for (const Record& r : dataset.records()) source_of.push_back(r.source);
        problem.source_of = &source_of;
      }
      Result<Clustering> clustered =
          Cluster(config.clusterer, problem, config.clusterer_options, ctx);
      if (!clustered.ok()) return clustered.status();
      out.num_clusters = clustered.value().num_clusters;
      out.cluster_of = std::move(clustered).value().cluster_of;
      out.total_seconds = watch.ElapsedSeconds();
      return out;
    }
    pipeline.emplace(dataset, config, ctx);
    return pipeline->Run(ctx);
  };
  Result<FusionResult> run = execute();

  std::signal(SIGINT, previous_handler);
  g_resolve_cancel = nullptr;

  const bool cancelled = !run.ok() && IsCancellation(run.status());
  if (!run.ok() && !cancelled) return Fail(run.status());
  static const FusionResult kEmptyResult;
  const FusionResult& result =
      run.ok() ? run.value()
               : (pipeline.has_value() ? pipeline->partial() : kEmptyResult);
  const PairSpace& pair_space =
      incremental ? state->pairs() : pipeline->pairs();

  if (cancelled) {
    if (incremental) {
      std::printf("interrupted (%s): incremental build cancelled; re-run "
                  "or resume via the daemon's converge path\n",
                  StatusCodeToString(run.status().code()));
    } else {
      std::printf("interrupted (%s): %zu of %zu rounds completed (%.1fs); "
                  "match decisions were not reached\n",
                  StatusCodeToString(run.status().code()),
                  result.round_stats.size(), config.rounds,
                  result.total_seconds);
    }
  } else {
    size_t matched = 0;
    for (bool m : result.matches) matched += m;
    std::printf("resolved %zu records: %zu candidate pairs, %zu matches, "
                "%zu entities via %s (%.1fs)\n",
                dataset.size(), pair_space.size(), matched,
                result.num_clusters, ClustererKindName(config.clusterer),
                result.total_seconds);
    Status write = SaveMatches(flags.GetString("matches"), pair_space,
                               result);
    if (!write.ok()) return Fail(write);
    std::printf("matches written to %s\n", flags.GetString("matches").c_str());
  }
  // Term weights from the last completed ITER run are valid even on a
  // cancelled run (they exist once round 1's ITER finished).
  if (!flags.GetString("weights").empty() && !result.term_weights.empty()) {
    Status write = SaveTermWeights(flags.GetString("weights"), dataset,
                                   result.term_weights);
    if (!write.ok()) return Fail(write);
    std::printf("term weights written to %s\n",
                flags.GetString("weights").c_str());
  }
  // The observability dumps are written for cancelled runs too — a
  // partial trace of a run someone Ctrl-C'd is exactly what they want to
  // look at next.
  if (metrics != nullptr) {
    Status write = WriteMetricsJson(flags.GetString("metrics_out"), *metrics);
    if (!write.ok()) return Fail(write);
    std::printf("metrics written to %s\n",
                flags.GetString("metrics_out").c_str());
  }
  if (trace != nullptr) {
    Status write = WriteTraceJson(flags.GetString("trace_out"), *trace);
    if (!write.ok()) return Fail(write);
    std::printf("trace written to %s (%zu events, %llu dropped)\n",
                flags.GetString("trace_out").c_str(), trace->event_count(),
                static_cast<unsigned long long>(trace->dropped_events()));
  }
  return cancelled ? kExitCancelled : 0;
}

int RunEvaluate(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("in", "dataset.csv", "input CSV with ground truth");
  flags.AddInt("sources", 1, "number of sources (1 or 2)");
  flags.AddString("matches", "matches.csv", "match file to score");
  flags.AddDouble("max_df_ratio", 0.12, "frequent-term removal ratio");
  AddLogLevelFlag(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyLogLevelFlag(flags);
  if (!s.ok()) return Fail(s);

  auto loaded = LoadDatasetCsv(flags.GetString("in"), "input",
                               static_cast<uint32_t>(flags.GetInt("sources")));
  if (!loaded.ok()) return Fail(loaded.status());
  auto [dataset, truth] = std::move(loaded).value();
  PreprocessOptions preprocess;
  preprocess.max_df_ratio = flags.GetDouble("max_df_ratio");
  RemoveFrequentTerms(&dataset, preprocess);

  PairSpace pairs = PairSpace::Build(dataset);
  auto matches = LoadMatches(flags.GetString("matches"), pairs);
  if (!matches.ok()) return Fail(matches.status());

  auto labels = LabelPairs(pairs, truth);
  Confusion c = EvaluatePairPredictions(pairs, matches.value(), labels,
                                        TotalPositives(dataset, truth));
  std::printf("precision %.4f  recall %.4f  F1 %.4f  (TP %llu, FP %llu, "
              "FN %llu)\n",
              c.Precision(), c.Recall(), c.F1(),
              static_cast<unsigned long long>(c.true_positives),
              static_cast<unsigned long long>(c.false_positives),
              static_cast<unsigned long long>(c.false_negatives));
  return 0;
}

// Runs every registered clustering endgame over the three synthetic
// families. Fusion (the expensive part) runs once per family; the
// endgames then re-cluster the same trained probabilities, which is
// exactly how they differ in production.
int RunEvalEndgames(int argc, char** argv) {
  FlagSet flags;
  flags.AddDouble("scale", 0.25, "dataset scale (1.0 = paper sizes)");
  flags.AddInt("seed", 2018, "generator seed");
  flags.AddInt("rounds", 3, "ITER/CliqueRank reinforcement rounds");
  flags.AddDouble("eta", 0.98, "matching probability threshold");
  flags.AddDouble("merge_threshold", 0.5,
                  "hierarchical endgame: stop merging below this linkage");
  flags.AddInt("threads", 1, "worker threads (0 = all cores, 1 = serial)");
  flags.AddString("out", "", "output JSON path (optional)");
  flags.AddBool("incremental", false,
                "train through the ResolverState engine (half the records "
                "batch-built, the rest streamed one at a time) instead of "
                "the batch fusion rounds");
  AddLogLevelFlag(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyLogLevelFlag(flags);
  if (s.ok()) s = RequirePositiveFlags(flags, {"rounds"});
  if (!s.ok()) return Fail(s);
  const bool incremental = flags.GetBool("incremental");

  struct Family {
    BenchmarkKind kind;
    const char* name;
  };
  const Family kFamilies[] = {{BenchmarkKind::kRestaurant, "restaurant"},
                              {BenchmarkKind::kProduct, "product"},
                              {BenchmarkKind::kPaper, "paper"}};

  std::unique_ptr<ThreadPool> pool = MakeThreadPool(flags.GetInt("threads"));
  ExecContext ctx;
  ctx.pool = pool.get();

  JsonValue report = JsonValue::MakeObject();
  report.Set("scale", JsonValue::MakeNumber(flags.GetDouble("scale")));
  report.Set("seed", JsonValue::MakeNumber(flags.GetInt("seed")));
  report.Set("eta", JsonValue::MakeNumber(flags.GetDouble("eta")));
  JsonValue datasets = JsonValue::MakeArray();

  for (const Family& family : kFamilies) {
    auto data = GenerateBenchmark(family.kind, flags.GetDouble("scale"),
                                  static_cast<uint64_t>(flags.GetInt("seed")),
                                  ctx);
    RemoveFrequentTerms(&data.dataset);

    FusionConfig config;
    config.rounds = static_cast<size_t>(flags.GetInt("rounds"));
    config.eta = flags.GetDouble("eta");

    // Either training arm fills these: the candidate space the endgames
    // re-cluster and the pairwise probabilities over it.
    std::optional<FusionPipeline> pipeline;
    std::optional<FusionResult> result;
    std::optional<ResolverState> state;
    Stopwatch train_watch;
    if (incremental) {
      // Replay harness: batch-build the first half, stream the rest in one
      // record at a time — the endgames then see the live incremental
      // probabilities rather than a frozen fusion run.
      ResolverStateOptions rs_options;
      rs_options.eta = config.eta;
      state.emplace(&data.dataset, rs_options);
      if (Status built = state->BuildBatch(ctx, data.dataset.size() / 2);
          !built.ok()) {
        return Fail(built);
      }
      while (state->num_records() < data.dataset.size()) {
        Result<IngestStats> ingested = state->IngestExisting(ctx);
        if (!ingested.ok()) return Fail(ingested.status());
      }
    } else {
      pipeline.emplace(data.dataset, config, ctx);
      Result<FusionResult> run = pipeline->Run(ctx);
      if (!run.ok()) return Fail(run.status());
      result = std::move(run).value();
    }
    const double train_seconds =
        incremental ? train_watch.ElapsedSeconds() : result->total_seconds;
    const PairSpace& candidate_pairs =
        incremental ? state->pairs() : pipeline->pairs();
    const std::vector<double>& probabilities =
        incremental ? state->pair_probability() : result->pair_probability;

    std::printf("%s: %zu records, %zu sources, %zu candidate pairs "
                "(%s %.2fs)\n",
                family.name, data.dataset.size(),
                static_cast<size_t>(data.dataset.num_sources()),
                candidate_pairs.size(),
                incremental ? "incremental" : "fusion", train_seconds);
    std::printf("  %-22s %9s %9s %9s %9s %9s\n", "clusterer", "prec",
                "recall", "f1", "clusters", "seconds");

    JsonValue dataset_obj = JsonValue::MakeObject();
    dataset_obj.Set("kind", JsonValue::MakeString(family.name));
    dataset_obj.Set("records", JsonValue::MakeNumber(data.dataset.size()));
    dataset_obj.Set("sources",
                    JsonValue::MakeNumber(data.dataset.num_sources()));
    dataset_obj.Set("candidate_pairs",
                    JsonValue::MakeNumber(candidate_pairs.size()));
    dataset_obj.Set("fusion_seconds", JsonValue::MakeNumber(train_seconds));
    dataset_obj.Set("incremental", JsonValue::MakeBool(incremental));
    JsonValue endgames = JsonValue::MakeArray();

    ClusterProblem problem;
    problem.num_records = data.dataset.size();
    problem.pairs = &candidate_pairs;
    problem.pair_probability = &probabilities;
    problem.eta = config.eta;
    std::vector<uint32_t> source_of;
    if (data.dataset.num_sources() > 1) {
      source_of.reserve(data.dataset.size());
      for (const Record& r : data.dataset.records()) {
        source_of.push_back(r.source);
      }
      problem.source_of = &source_of;
    }

    ClustererOptions options;
    options.merge_threshold = flags.GetDouble("merge_threshold");
    for (ClustererKind kind : AllClustererKinds()) {
      Stopwatch watch;
      Result<Clustering> clustered = Cluster(kind, problem, options, ctx);
      if (!clustered.ok()) return Fail(clustered.status());
      const double seconds = watch.ElapsedSeconds();
      ClusterEvaluation eval =
          EvaluateClustering(clustered.value().cluster_of, data.truth);

      std::printf("  %-22s %9.4f %9.4f %9.4f %9zu %9.3f\n",
                  ClustererKindName(kind), eval.pairwise_precision,
                  eval.pairwise_recall, eval.pairwise_f1,
                  clustered.value().num_clusters, seconds);

      JsonValue row = JsonValue::MakeObject();
      row.Set("clusterer", JsonValue::MakeString(ClustererKindName(kind)));
      row.Set("precision", JsonValue::MakeNumber(eval.pairwise_precision));
      row.Set("recall", JsonValue::MakeNumber(eval.pairwise_recall));
      row.Set("f1", JsonValue::MakeNumber(eval.pairwise_f1));
      row.Set("adjusted_rand_index",
              JsonValue::MakeNumber(eval.adjusted_rand_index));
      row.Set("clusters",
              JsonValue::MakeNumber(clustered.value().num_clusters));
      row.Set("seconds", JsonValue::MakeNumber(seconds));
      endgames.Append(std::move(row));
    }
    dataset_obj.Set("endgames", std::move(endgames));
    datasets.Append(std::move(dataset_obj));
  }
  report.Set("datasets", std::move(datasets));

  if (!flags.GetString("out").empty()) {
    const std::string path = flags.GetString("out");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::Internal("cannot open '" + path + "' for writing"));
    }
    const std::string json = report.Serialize();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
                        json.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (!ok) return Fail(Status::Internal("short write to '" + path + "'"));
    std::printf("report written to %s\n", path.c_str());
  }
  return 0;
}

int RunReport(int argc, char** argv) {
  FlagSet flags;
  flags.AddDouble("regress_ratio", 0.10,
                  "diff: mean-seconds growth that counts as a regression");
  flags.AddDouble("min_seconds", 1e-4,
                  "diff: baseline means below this never gate");
  AddLogLevelFlag(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyLogLevelFlag(flags);
  if (!s.ok()) return Fail(s);

  const auto& paths = flags.positional();
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr,
                 "usage: gter_cli report <metrics.json> [candidate.json] "
                 "[--regress_ratio R] [--min_seconds S]\n");
    return 2;
  }

  auto baseline = MetricsSnapshot::Load(paths[0]);
  if (!baseline.ok()) return Fail(baseline.status());

  if (paths.size() == 1) {
    std::printf("run report for %s\n\n%s", paths[0].c_str(),
                FormatRunReport(baseline.value()).c_str());
    return 0;
  }

  auto candidate = MetricsSnapshot::Load(paths[1]);
  if (!candidate.ok()) return Fail(candidate.status());
  PerfDiffOptions options;
  options.regress_ratio = flags.GetDouble("regress_ratio");
  options.min_seconds = flags.GetDouble("min_seconds");
  PerfDiffResult diff =
      DiffSnapshots(baseline.value(), candidate.value(), options);
  std::printf("%s vs %s\n%s", paths[0].c_str(), paths[1].c_str(),
              diff.report.c_str());
  return diff.regressions.empty() ? 0 : 1;
}

int RunClient(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("host", "127.0.0.1", "gterd address");
  flags.AddInt("port", 7421, "gterd port");
  flags.AddInt("deadline_ms", 0, "per-request deadline (0 = none)");
  flags.AddInt("repeat", 1,
               "send the request N times and print client-observed "
               "p50/p95/p99 latency on exit");
  AddLogLevelFlag(&flags);
  Status s = flags.Parse(argc, argv);
  if (s.ok()) s = ApplyLogLevelFlag(flags);
  if (!s.ok()) return Fail(s);

  const auto& args = flags.positional();
  if (args.empty() || args.size() > 2) {
    std::fprintf(
        stderr,
        "usage: gter_cli client [--host H] [--port P] [--deadline_ms D] "
        "[--repeat N] <method> [params-json]\n"
        "e.g.   gter_cli client --port 7421 stats\n"
        "       gter_cli client resolve '{\"text\": \"fenix cafe lodge\"}'\n"
        "       gter_cli client pair_score '{\"a\": 3, \"b\": 17}'\n"
        "       gter_cli client --repeat 100 resolve '{\"text\": \"x\"}'\n");
    return 2;
  }
  const int64_t repeat = std::max<int64_t>(1, flags.GetInt("repeat"));
  JsonValue params = JsonValue::MakeObject();
  if (args.size() == 2) {
    auto parsed = JsonValue::Parse(args[1]);
    if (!parsed.ok()) return Fail(parsed.status());
    if (!parsed.value().is_object()) {
      return Fail(Status::InvalidArgument("params must be a JSON object"));
    }
    params = std::move(parsed).value();
  }

  auto client =
      GterdClient::Connect(flags.GetString("host"),
                           static_cast<uint16_t>(flags.GetInt("port")));
  if (!client.ok()) return Fail(client.status());

  // One round trip per iteration; per-call wall times feed the percentile
  // printout, so a hand-run smoke check is directly comparable to the
  // server's /metrics work_us percentiles (client time adds RTT + queue).
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(repeat));
  for (int64_t i = 0; i < repeat; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto response = client.value().Call(args[0], params,
                                        flags.GetInt("deadline_ms"));
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return IsCancellation(response.status()) ? kExitCancelled : 1;
    }
    latencies_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    // The response body prints once: repeats are for timing, not output.
    if (i == 0) {
      std::printf("%s\n", response.value().Serialize().c_str());
    }
  }
  if (repeat > 1) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const auto pct = [&latencies_us](double q) {
      const size_t idx = static_cast<size_t>(
          q * static_cast<double>(latencies_us.size() - 1) + 0.5);
      return latencies_us[std::min(idx, latencies_us.size() - 1)];
    };
    std::printf(
        "client latency over %lld calls: p50 %.1f us, p95 %.1f us, "
        "p99 %.1f us\n",
        static_cast<long long>(repeat), pct(0.50), pct(0.95), pct(0.99));
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: gter_cli "
      "<generate|resolve|evaluate|eval-endgames|report|client> [flags]\n"
      "  generate       synthesize a benchmark dataset to CSV\n"
      "  resolve        run unsupervised resolution on a CSV dataset\n"
      "  evaluate       score a match file against ground truth\n"
      "  eval-endgames  compare every clustering endgame on the synthetic "
      "families\n"
      "  report         summarize or diff --metrics_out JSON files\n"
      "  client         send one request to a running gterd\n");
  return 2;
}

}  // namespace
}  // namespace gter

int main(int argc, char** argv) {
  if (argc < 2) return gter::Usage();
  std::string command = argv[1];
  // Shift the subcommand out of argv for the flag parser.
  if (command == "generate") return gter::RunGenerate(argc - 1, argv + 1);
  if (command == "resolve") return gter::RunResolve(argc - 1, argv + 1);
  if (command == "evaluate") return gter::RunEvaluate(argc - 1, argv + 1);
  if (command == "eval-endgames") {
    return gter::RunEvalEndgames(argc - 1, argv + 1);
  }
  if (command == "report") return gter::RunReport(argc - 1, argv + 1);
  if (command == "client") return gter::RunClient(argc - 1, argv + 1);
  return gter::Usage();
}
