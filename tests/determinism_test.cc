// Byte-level reproducibility of the full coarse -> fine pipeline: the
// paper's evaluation tables (and any dedup-style audit trail) require
// that the same corpus and seed always produce the same clusters, in
// the same order, rendered to the same JSON — across repeated runs AND
// across thread counts. Anything less means unordered-container hash
// order or scheduling leaked into the output (tools/lint.py rule
// unordered-determinism guards the code side; this guards the result).

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "coarse_reference.h"
#include "core/infoshield.h"
#include "datagen/trafficking_gen.h"
#include "fine_reference.h"
#include "io/json_writer.h"

namespace infoshield {
namespace {

LabeledAds MakeCorpus(uint64_t seed) {
  TraffickingGenOptions o;
  o.num_benign = 80;
  o.num_spam_clusters = 2;
  o.spam_cluster_size_min = 10;
  o.spam_cluster_size_max = 20;
  o.num_ht_clusters = 6;
  o.ht_cluster_size_min = 4;
  o.ht_cluster_size_max = 10;
  return TraffickingGenerator(o).Generate(seed);
}

std::string RunToJson(const Corpus& corpus, InfoShieldOptions options) {
  InfoShield shield(options);
  InfoShieldResult result = shield.Run(corpus);
  return ResultToJson(result, corpus);
}

std::string RunToJson(const Corpus& corpus, size_t num_threads,
                      CoarseBackend backend = CoarseBackend::kTfidfGraph) {
  InfoShieldOptions options;
  options.num_threads = num_threads;
  options.coarse.backend = backend;
  return RunToJson(corpus, options);
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const std::string first = RunToJson(data.corpus, /*num_threads=*/1);
  const std::string second = RunToJson(data.corpus, /*num_threads=*/1);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, ThreadCountDoesNotChangeOutput) {
  LabeledAds data = MakeCorpus(/*seed=*/7);
  const std::string sequential = RunToJson(data.corpus, /*num_threads=*/1);
  const std::string parallel4 = RunToJson(data.corpus, /*num_threads=*/4);
  const std::string parallel8 = RunToJson(data.corpus, /*num_threads=*/8);
  EXPECT_EQ(sequential, parallel4);
  EXPECT_EQ(sequential, parallel8);
}

TEST(DeterminismTest, NaiveCostingIsByteIdenticalToOptimized) {
  // The fine-stage optimizations (consensus-identity caching, alignment
  // reuse, incremental slot costing, the claim/fit/decide fan-out) are
  // required to be exact: the naive reference in fine_reference.h
  // re-derives everything the slow way, one cluster at a time, and must
  // render to the same bytes, with the coarse stage at every thread
  // count.
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const std::string optimized = RunToJson(data.corpus, /*num_threads=*/1);
  for (size_t threads : {1u, 4u, 8u}) {
    InfoShieldOptions options;
    options.num_threads = threads;
    EXPECT_EQ(optimized,
              ResultToJson(reference::RunNaivePipeline(options, data.corpus),
                           data.corpus))
        << "naive costing diverged at num_threads=" << threads;
  }
}

TEST(DeterminismTest, CoarseStageMatchesSerialReference) {
  // The coarse pipeline (per-thread df counting, per-document top-phrase
  // fan-out, the bucket-run graph) is required to be exact: both
  // backends must reproduce the single-threaded edge replay kept in
  // coarse_reference.h at every thread count.
  LabeledAds data = MakeCorpus(/*seed=*/42);
  for (CoarseBackend backend :
       {CoarseBackend::kTfidfGraph, CoarseBackend::kMinhashLsh}) {
    CoarseOptions options;
    options.backend = backend;
    const CoarseResult serial = reference::RunSerial(data.corpus, options);
    for (size_t threads : {1u, 4u, 8u}) {
      options.num_threads = threads;
      const CoarseResult run = CoarseClustering(options).Run(data.corpus);
      EXPECT_EQ(run.clusters, serial.clusters) << "threads=" << threads;
      EXPECT_EQ(run.singletons, serial.singletons) << "threads=" << threads;
      EXPECT_EQ(run.doc_top_phrases, serial.doc_top_phrases)
          << "threads=" << threads;
    }
  }
}

TEST(DeterminismTest, GiantComponentFanOutIsByteIdentical) {
  // Single shared words as top phrases percolate the coarse graph into
  // one giant component (TfidfOptions::min_ngram's comment), the shape
  // that serialized the fine stage when it fanned out per cluster. The
  // flat per-candidate-set fan-out must render the same bytes at every
  // thread count.
  LabeledAds data = MakeCorpus(/*seed=*/7);
  InfoShieldOptions options;
  options.coarse.tfidf.min_ngram = 1;
  options.coarse.tfidf.top_fraction = 0.3;
  CoarseResult coarse = CoarseClustering(options.coarse).Run(data.corpus);
  size_t clustered = 0;
  size_t largest = 0;
  for (const std::vector<DocId>& c : coarse.clusters) {
    clustered += c.size();
    largest = std::max(largest, c.size());
  }
  ASSERT_GT(2 * largest, clustered) << "corpus has no giant component";

  options.num_threads = 1;
  const InfoShieldResult result = InfoShield(options).Run(data.corpus);
  ASSERT_GT(result.templates.size(), 1u);
  const std::string sequential = ResultToJson(result, data.corpus);
  for (size_t threads : {2u, 3u, 4u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(sequential, RunToJson(data.corpus, options))
        << "fine fan-out diverged at num_threads=" << threads;
  }
}

TEST(DeterminismTest, MinhashLshBackendIsByteIdenticalAcrossThreads) {
  // The MinHash/LSH coarse backend must honor the same contract as the
  // tf-idf backend: signatures are pure per-document functions and the
  // bucket run does not depend on the thread count, so any worker count
  // renders to the same bytes.
  LabeledAds data = MakeCorpus(/*seed=*/42);
  const std::string serial = RunToJson(data.corpus, /*num_threads=*/1,
                                       CoarseBackend::kMinhashLsh);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {4u, 8u}) {
    EXPECT_EQ(serial,
              RunToJson(data.corpus, threads, CoarseBackend::kMinhashLsh))
        << "LSH coarse backend diverged at num_threads=" << threads;
  }
}

TEST(DeterminismTest, RegeneratedCorpusIsByteIdentical) {
  // The generator itself must be seed-deterministic, or the pipeline
  // guarantees above would be untestable end to end.
  LabeledAds a = MakeCorpus(/*seed=*/1234);
  LabeledAds b = MakeCorpus(/*seed=*/1234);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  EXPECT_EQ(RunToJson(a.corpus, 2), RunToJson(b.corpus, 2));
}

}  // namespace
}  // namespace infoshield
