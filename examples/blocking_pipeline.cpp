// Scalable candidate generation: compare the paper's share-one-term
// blocking (PairSpace) with MinHash-LSH banding, then resolve with the
// fusion framework. At benchmark scale both work; LSH is what survives
// when the corpus grows to millions of records.
//
//   build/examples/blocking_pipeline [--scale 0.3]

#include <cstdio>

#include "gter/gter.h"

int main(int argc, char** argv) {
  using namespace gter;
  FlagSet flags;
  flags.AddDouble("scale", 0.3, "dataset scale");
  flags.AddInt("seed", 13, "generator seed");
  GTER_CHECK_OK(flags.Parse(argc, argv));

  auto generated = GenerateBenchmark(BenchmarkKind::kRestaurant,
                                     flags.GetDouble("scale"),
                                     static_cast<uint64_t>(flags.GetInt("seed")));
  Dataset& dataset = generated.dataset;
  RemoveFrequentTerms(&dataset);

  // Baseline blocking: every pair sharing one surviving term (§V-B).
  PairSpace share_term = PairSpace::Build(dataset);
  std::vector<RecordPair> share_term_pairs = share_term.pairs();
  std::printf("share-one-term blocking: %6zu pairs, recall %.3f\n",
              share_term_pairs.size(),
              BlockingRecall(dataset, generated.truth, share_term_pairs));

  // MinHash-LSH banding at a few operating points.
  for (auto [bands, rows] : {std::pair<size_t, size_t>{8, 4},
                             std::pair<size_t, size_t>{16, 3},
                             std::pair<size_t, size_t>{32, 2}}) {
    LshBlockingOptions options;
    options.num_bands = bands;
    options.rows_per_band = rows;
    BlockingResult lsh = LshBlocking(dataset, options).value();
    std::printf("LSH %2zu bands x %zu rows:  %6zu pairs, recall %.3f\n",
                bands, rows, lsh.pairs.size(),
                BlockingRecall(dataset, generated.truth, lsh.pairs));
  }

  // Resolve on the standard pair space and report quality.
  FusionConfig config;
  config.rounds = 3;
  FusionPipeline pipeline(dataset, config);
  FusionResult result = pipeline.Run().value();
  auto labels = LabelPairs(pipeline.pairs(), generated.truth);
  Confusion c = EvaluatePairPredictions(
      pipeline.pairs(), result.matches, labels,
      TotalPositives(dataset, generated.truth));
  std::printf("\nfusion on share-one-term candidates: P %.3f / R %.3f / "
              "F1 %.3f\n",
              c.Precision(), c.Recall(), c.F1());

  // MinHash also gives a cheap similarity estimate per candidate: shown on
  // the first three share-one-term candidates that are true matches.
  MinHasher hasher(128);
  size_t shown = 0;
  for (const RecordPair& rp : share_term_pairs) {
    if (shown == 3) break;
    if (!generated.truth.IsMatch(rp.a, rp.b)) continue;
    const Record& a = dataset.record(rp.a);
    const Record& b = dataset.record(rp.b);
    double est = MinHasher::EstimateJaccard(hasher.Signature(a.terms),
                                            hasher.Signature(b.terms));
    double exact = JaccardSimilarity(a.terms, b.terms);
    std::printf("record %u vs %u: Jaccard %.3f, MinHash estimate %.3f\n",
                rp.a, rp.b, exact, est);
    ++shown;
  }
  return 0;
}
