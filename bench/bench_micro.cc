// Micro-benchmarks (google-benchmark) for the substrates: the masked
// sparse multiply, both CliqueRank engines, string metrics, tokenization,
// one whole ITER run, one fusion Run, PageRank, and the parallel RSS pair
// loop — the kernels whose cost model DESIGN.md documents.
//
// Besides the usual --benchmark_* flags, main() accepts:
//   --metrics_out=PATH   dump the stage timers the kernels record (the
//                        input of `gter_cli report` / tools/perf_gate.sh)
//   --trace_out=PATH     dump a Chrome/Perfetto trace of the run
//   --log_level=LEVEL    debug|info|warning|error
//   --simd=LEVEL         scalar|avx512|auto — caps the dispatch level
//                        the kernels may use (per-benchmark "simd" args
//                        still pin each measurement below that cap)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gter/gter.h"

namespace gter {
namespace {

// The context every benchmark hands the stages it runs (a copy, where it
// adds a pool): main() puts the --metrics_out registry and the --trace_out
// recorder in it before any benchmark runs.
ExecContext g_bench_ctx;

// Pins the SIMD level of the benchmark's "simd" argument (0 = scalar,
// 2 = avx512) for the benchmark's lifetime, or skips the
// benchmark when the level exceeds what the CPU/build supports — or what a
// global --simd= cap allows (so `--simd=scalar` runs produce scalar-only
// timers, directly diffable against pre-SIMD baselines). Each dispatched
// kernel is benchmarked at every tier it has, so the scalar-vs-SIMD ratio
// is readable from one bench run.
std::unique_ptr<ScopedSimdLevel> PinSimdLevel(benchmark::State& state,
                                              int64_t level_arg) {
  const SimdLevel level = static_cast<SimdLevel>(level_arg);
  if (level > ActiveSimdLevel()) {
    state.SkipWithError("SIMD level unavailable (CPU, build, or --simd cap)");
    return nullptr;
  }
  return std::make_unique<ScopedSimdLevel>(level);
}

// "bench/<kernel>[_<level>]_n<size>" — one stage timer per (kernel, tier,
// problem size), the names tools/perf_gate.sh diffs against
// BENCH_baseline.json (bench/cliquerank_dense_avx512_n373, ...); kernels
// with a single implementation carry no level. Benchmarks record the timer once per
// iteration (see TimedLoop), so a timer's mean per call is the seconds of
// one kernel call on one fixed problem.
std::string TimerName(const std::string& kernel, size_t size) {
  return "bench/" + kernel + "_n" + std::to_string(size);
}
std::string TimerName(const std::string& kernel, SimdLevel level,
                      size_t size) {
  return TimerName(kernel + "_" + SimdLevelName(level), size);
}

// Runs the benchmark loop with `body` timed into `timer_name` once per
// iteration. Timing the whole loop instead would make one timer call one
// adaptive google-benchmark run, whose length tracks --benchmark_min_time
// rather than the kernel.
template <typename Body>
void TimedLoop(benchmark::State& state, const std::string& timer_name,
               Body body) {
  for (auto _ : state) {
    ScopedTimer timer(g_bench_ctx.metrics, g_bench_ctx.trace,
                      timer_name.c_str());
    body();
  }
}

void BM_MaskedProductCsr(benchmark::State& state) {
  // Random graph with n nodes and ~8n edges; the CliqueRank inner kernel,
  // with the previous power in CSR form (no n×n scratch).
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<CsrMatrix::Triplet> triplets;
  for (uint32_t i = 0; i < n; ++i) {
    for (int e = 0; e < 8; ++e) {
      uint32_t j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j == i) continue;
      triplets.push_back({i, j, rng.OpenUniformDouble()});
      triplets.push_back({j, i, rng.OpenUniformDouble()});
    }
  }
  CsrMatrix trans = CsrMatrix::FromTriplets(n, n, triplets);
  trans.NormalizeRows();
  CsrMatrix pattern = trans;  // same structure
  std::vector<double> values(pattern.nnz(), 0.5);
  std::vector<double> out(pattern.nnz(), 0.0);
  TimedLoop(state, TimerName("masked_csr", n), [&] {
    ComputeMaskedProductCsr(trans, values.data(), pattern, out.data());
    benchmark::DoNotOptimize(out.data());
  });
  state.counters["edges"] = static_cast<double>(pattern.nnz());
}
BENCHMARK(BM_MaskedProductCsr)->ArgNames({"n"})->Arg(512)->Arg(2048);

// Restaurant-style field pairs: long enough to exercise the bit-parallel
// cores, small enough to stay cache-resident. Each round adds 8 noisy
// variants of each base string; one iteration scores the whole corpus, so
// per-call overhead does not dominate and one timed iteration (~0.5 ms and
// up) stays well above the perf gate's 1e-4 s floor.
std::vector<std::pair<std::string, std::string>> StringCorpus() {
  constexpr int kRounds = 64;
  std::vector<std::pair<std::string, std::string>> corpus;
  Rng rng(7);
  const char* bases[] = {
      "arnie mortons of chicago 435 s la cienega blvd los angeles",
      "art s delicatessen 12224 ventura blvd studio city",
      "panasonic pslx350h turntable with usb output and dust cover",
      "campanile 624 s la brea ave los angeles california american",
  };
  for (int round = 0; round < kRounds; ++round) {
    for (const char* base : bases) {
      for (int v = 0; v < 8; ++v) {
        std::string noisy = base;
        for (int edits = 0; edits <= v % 4; ++edits) {
          size_t pos = rng.NextBounded(noisy.size());
          noisy[pos] = static_cast<char>('a' + rng.NextBounded(26));
        }
        corpus.emplace_back(base, noisy);
      }
    }
  }
  return corpus;
}

void BM_Levenshtein(benchmark::State& state) {
  const auto corpus = StringCorpus();
  TimedLoop(state, TimerName("levenshtein", corpus.size()), [&] {
    size_t total = 0;
    for (const auto& [a, b] : corpus) total += LevenshteinDistance(a, b);
    benchmark::DoNotOptimize(total);
  });
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_Levenshtein);

// Jaro-Winkler through the batched entry point, one candidate batch of 8
// per base string and round (the shape the token-set metrics call it with).
void BM_JaroWinkler(benchmark::State& state) {
  auto pin = PinSimdLevel(state, state.range(0));
  if (pin == nullptr) return;
  std::vector<std::pair<std::string, std::vector<std::string>>> grouped;
  size_t pairs = 0;
  for (auto& [base, noisy] : StringCorpus()) {
    if (grouped.empty() || grouped.back().first != base) {
      grouped.push_back({base, {}});
    }
    grouped.back().second.push_back(std::move(noisy));
    ++pairs;
  }
  std::vector<double> sims;
  TimedLoop(state, TimerName("jaro_winkler", ActiveSimdLevel(), pairs), [&] {
    double total = 0.0;
    for (const auto& [base, batch] : grouped) {
      JaroWinklerSimilarityBatch(base, batch, &sims);
      for (double s : sims) total += s;
    }
    benchmark::DoNotOptimize(total);
  });
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs));
}
BENCHMARK(BM_JaroWinkler)->ArgNames({"simd"})->Arg(0)->Arg(2);

void BM_JaccardTerms(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint32_t> a, b;
  for (int i = 0; i < 12; ++i) {
    a.push_back(static_cast<uint32_t>(rng.NextBounded(10000)));
    b.push_back(static_cast<uint32_t>(rng.NextBounded(10000)));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardSimilarity(a, b));
  }
}
BENCHMARK(BM_JaccardTerms);

void BM_Tokenize(benchmark::State& state) {
  std::string text =
      "Golden Dragon Palace, 435 S. La Cienega Blvd., Los Angeles "
      "310-246-1501 Chinese";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

// One whole RunIter over the Paper corpus at scale 0.2, at the fusion
// round's cap (100 sweeps, tolerance 0), so the call's one-time grouping of
// pairs by shared-term set is paid as often as in a fusion round. ITER has
// a single implementation, so its timer carries no level.
IterOptions FusionCapIterOptions() {
  IterOptions options;
  options.max_iterations = 100;
  options.tolerance = 0.0;
  return options;
}

void BM_IterRun(benchmark::State& state) {
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.2, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  PairSpace pairs = PairSpace::Build(data.dataset, g_bench_ctx);
  BipartiteGraph graph =
      BipartiteGraph::Build(data.dataset, pairs, g_bench_ctx);
  std::vector<double> probability(pairs.size(), 1.0);
  const IterOptions options = FusionCapIterOptions();
  TimedLoop(state, TimerName("iter_run", data.dataset.size()), [&] {
    benchmark::DoNotOptimize(
        RunIter(graph, probability, options, g_bench_ctx));
  });
  state.counters["bipartite_edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_IterRun);

// One FusionPipeline::Run (default config: 5 rounds) on the two-source
// Product corpus at scale 0.3, built in memory. Its record graph is
// bipartite, so CliqueRank runs no product and the timer carries the
// per-round work around it: ITER, the graph's weights, M_t and M_b.
void BM_FusionRun(benchmark::State& state) {
  auto data = GenerateBenchmark(BenchmarkKind::kProduct, 0.3, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  FusionPipeline pipeline(data.dataset, FusionConfig(), g_bench_ctx);
  TimedLoop(state, TimerName("fusion_run_product", data.dataset.size()), [&] {
    auto result = pipeline.Run(g_bench_ctx);
    benchmark::DoNotOptimize(result.value().pair_probability.data());
  });
  state.counters["pairs"] = static_cast<double>(pipeline.pairs().size());
}
BENCHMARK(BM_FusionRun);

// CliqueRank through the masked-sparse engine on the same corpus. The
// Paper graph has triangles, so all 8 steps run (a bipartite graph would
// stop after step 1).
void BM_CliqueRankMasked(benchmark::State& state) {
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.2, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  PairSpace pairs = PairSpace::Build(data.dataset, g_bench_ctx);
  std::vector<double> sims(pairs.size(), 0.8);
  RecordGraph graph = RecordGraph::Build(data.dataset.size(), pairs, sims);
  CliqueRankOptions options;
  options.engine = CliqueRankEngine::kMaskedSparse;
  options.max_steps = 8;
  TimedLoop(state, TimerName("cliquerank_masked", data.dataset.size()), [&] {
    auto result = RunCliqueRank(graph, pairs, options, g_bench_ctx);
    benchmark::DoNotOptimize(result.value().pair_probability.data());
  });
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_CliqueRankMasked);

// The dense engine's twin of BM_CliqueRankMasked: the same corpus and 8
// steps through the panel kernel, at each width it has (0 = the 2-wide
// copy every level below avx512 runs, 2 = avx512). Its p is bit-identical
// to the masked engine's.
void BM_CliqueRankDense(benchmark::State& state) {
  auto pin = PinSimdLevel(state, state.range(0));
  if (pin == nullptr) return;
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.2, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  PairSpace pairs = PairSpace::Build(data.dataset, g_bench_ctx);
  std::vector<double> sims(pairs.size(), 0.8);
  RecordGraph graph = RecordGraph::Build(data.dataset.size(), pairs, sims);
  CliqueRankOptions options;
  options.engine = CliqueRankEngine::kDense;
  options.max_steps = 8;
  TimedLoop(state,
            TimerName("cliquerank_dense", ActiveSimdLevel(),
                      data.dataset.size()),
            [&] {
              auto result = RunCliqueRank(graph, pairs, options, g_bench_ctx);
              benchmark::DoNotOptimize(
                  result.value().pair_probability.data());
            });
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_CliqueRankDense)->ArgNames({"simd"})->Arg(0)->Arg(2);

// RSS over the Paper-like record graph, pair loop split across a pool of
// range(0) threads. Results are bit-identical for every thread count
// (checked once per run below), so the wall-clock ratio between /1 and /N
// is the parallel speedup of the hot path.
void BM_Rss(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.2, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  PairSpace pairs = PairSpace::Build(data.dataset, g_bench_ctx);
  std::vector<double> sims(pairs.size(), 0.8);
  RecordGraph graph = RecordGraph::Build(data.dataset.size(), pairs, sims);

  RssOptions options;
  options.num_walks = 20;
  ThreadPool pool(threads);
  ExecContext ctx = g_bench_ctx;
  if (threads > 1) ctx.pool = &pool;

  // Determinism contract: the parallel run must match the serial run bit
  // for bit before we time anything.
  GTER_CHECK(RunRss(graph, pairs, options, ctx).value() ==
             RunRss(graph, pairs, options, g_bench_ctx).value());

  for (auto _ : state) {
    auto p = RunRss(graph, pairs, options, ctx).value();
    benchmark::DoNotOptimize(p.data());
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_Rss)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_PageRank(benchmark::State& state) {
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.2, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  TermGraph graph = TermGraph::Build(data.dataset);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageRank(graph));
  }
}
BENCHMARK(BM_PageRank);

// Single-record ingest into a live ~10k-record ResolverState (arg 1) vs
// recomputing the whole batch fixed point from scratch (arg 0) — the
// incremental engine's reason to exist. The ingest arm streams a fresh
// record per iteration into the pre-built state (O(neighborhood) +
// dirty-region re-ITER); the rebuild arm is what a batch-only stack
// would pay for the same freshness. Acceptance: ingest ≥ 20x cheaper.
void BM_IncrementalIngest(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  // kRestaurant at scale 11.66 is the 10k-record corpus (10004 records).
  // The restaurant generator's bimodal token frequencies (near-unique
  // tail + a few street-suffix hubs) match the sparse regime streaming
  // ingest targets; kPaper's dense synthetic overlap would make every
  // ingest perturb half the graph and measure the batch path instead.
  auto data =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 11.66, 5, g_bench_ctx);
  RemoveFrequentTerms(&data.dataset);
  // Fresh records to stream, generated off a disjoint seed so they are
  // new entities with realistic term overlap.
  auto extra =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 77, g_bench_ctx);
  std::vector<std::string> extra_texts;
  for (const Record& r : extra.dataset.records()) {
    extra_texts.push_back(r.raw_text);
  }
  ResolverStateOptions options;
  state.counters["records"] = static_cast<double>(data.dataset.size());
  if (incremental) {
    ResolverState st(&data.dataset, options);
    GTER_CHECK(st.BuildBatch(g_bench_ctx).ok());
    size_t next = 0;
    TimedLoop(state, "bench/incremental_ingest", [&] {
      auto ingested = st.Ingest(0, extra_texts[next++ % extra_texts.size()],
                                g_bench_ctx);
      GTER_CHECK(ingested.ok());
      benchmark::DoNotOptimize(ingested.value().cluster);
    });
  } else {
    TimedLoop(state, "bench/batch_rebuild", [&] {
      ResolverState st(&data.dataset, options);
      GTER_CHECK(st.BuildBatch(g_bench_ctx).ok());
      benchmark::DoNotOptimize(st.matched_count());
    });
  }
}
BENCHMARK(BM_IncrementalIngest)
    ->ArgNames({"incremental"})
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

}  // namespace
}  // namespace gter

// BENCHMARK_MAIN(), plus the observability flags: gter-specific flags are
// peeled out of argv (equals-form only) before google-benchmark parses the
// rest, so --benchmark_filter etc. still work.
int main(int argc, char** argv) {
  std::string metrics_out, trace_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    gter::Status flag_status;
    if (gter::ConsumeCommonStageFlag(argv[i], &metrics_out, &trace_out,
                                     &flag_status)) {
      if (!flag_status.ok()) {
        std::fprintf(stderr, "%s\n", flag_status.ToString().c_str());
        return 1;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }

  std::unique_ptr<gter::MetricsRegistry> metrics;
  if (!metrics_out.empty()) {
    metrics = std::make_unique<gter::MetricsRegistry>();
  }
  std::unique_ptr<gter::TraceRecorder> trace;
  if (!trace_out.empty()) {
    gter::SetCurrentThreadTraceName("main");
    trace = std::make_unique<gter::TraceRecorder>();
  }
  gter::EmitCpuInfo(metrics.get(), trace.get());
  gter::g_bench_ctx.metrics = metrics.get();
  gter::g_bench_ctx.trace = trace.get();

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (metrics != nullptr) {
    gter::Status s = gter::WriteMetricsJson(metrics_out, *metrics);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (trace != nullptr) {
    gter::Status s = gter::WriteTraceJson(trace_out, *trace);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                trace->event_count());
  }
  return 0;
}
