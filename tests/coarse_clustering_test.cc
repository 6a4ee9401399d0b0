#include "coarse/coarse_clustering.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coarse_reference.h"
#include "datagen/trafficking_gen.h"

namespace infoshield {
namespace {

TEST(CoarseTest, NearDuplicatesGrouped) {
  Corpus c;
  c.Add("this is a great soap and the 5 dollar price is great");
  c.Add("this is a great chair and the 10 dollar price is great");
  c.Add("this is a great hat and the 3 dollar price is great");
  c.Add("completely different text about mountains rivers valleys oceans");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0], (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(r.singletons, (std::vector<DocId>{3}));
}

TEST(CoarseTest, DisjointTopicsSeparate) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma delta epsilon zeta eta iota");
  c.Add("uno dos tres cuatro cinco seis siete ocho");
  c.Add("uno dos tres cuatro cinco seis siete nueve");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[0], (std::vector<DocId>{0, 1}));
  EXPECT_EQ(r.clusters[1], (std::vector<DocId>{2, 3}));
}

TEST(CoarseTest, EmptyCorpus) {
  Corpus c;
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_TRUE(r.singletons.empty());
}

TEST(CoarseTest, AllUniqueDocsAreSingletons) {
  Corpus c;
  c.Add("one red apple fell from tall tree yesterday morning quietly");
  c.Add("two blue birds flew over green hills during warm evening");
  c.Add("three old ships sailed across deep ocean under bright stars");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_EQ(r.singletons.size(), 3u);
}

TEST(CoarseTest, ExactDuplicatesAlwaysCluster) {
  Corpus c;
  for (int i = 0; i < 5; ++i) {
    c.Add("identical spam message repeated many times verbatim");
  }
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0].size(), 5u);
}

TEST(CoarseTest, MinClusterSizeThreeDropsPairs) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  CoarseOptions opts;
  opts.min_cluster_size = 3;
  CoarseClustering coarse(opts);
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_EQ(r.singletons.size(), 2u);
}

TEST(CoarseTest, PhraseDegreeCapBreaksHubs) {
  // All docs share one phrase; capping the degree at 1 means the second
  // and later occurrences add no edges, leaving everything singleton.
  Corpus c;
  for (int i = 0; i < 4; ++i) {
    c.Add("shared phrase here " + std::to_string(i) + " unique suffix " +
          std::to_string(i * 7));
  }
  CoarseOptions opts;
  opts.max_phrase_degree = 1;
  CoarseClustering coarse(opts);
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
}

// Mixture corpus: several near-duplicate campaigns plus unique filler,
// big enough that the parallel path actually chunks the work.
Corpus MixtureCorpus() {
  Corpus c;
  for (int i = 0; i < 30; ++i) {
    c.Add("identical spam message blast number " + std::to_string(i % 5) +
          " contact now " + std::to_string(i % 5));
  }
  for (int i = 0; i < 10; ++i) {
    c.Add("wholly unique filler text piece " + std::to_string(i) + " " +
          std::to_string(i * 13 + 100) + " nothing shared");
  }
  return c;
}

// Every thread count the tests sweep, 3 included so the bucket-run
// merge sees an odd number of chunks.
constexpr size_t kThreadCounts[] = {1, 2, 3, 4, 8};

// Run must equal the serial edge replay (coarse_reference.h) field for
// field at every thread count.
void ExpectMatchesReference(const Corpus& corpus, CoarseOptions options,
                            const std::string& label) {
  const CoarseResult reference = reference::RunSerial(corpus, options);
  for (size_t threads : kThreadCounts) {
    options.num_threads = threads;
    const CoarseResult run = CoarseClustering(options).Run(corpus);
    const std::string where = label + " cap=" +
                              std::to_string(options.max_phrase_degree) +
                              " threads=" + std::to_string(threads);
    EXPECT_EQ(run.clusters, reference.clusters) << where;
    EXPECT_EQ(run.singletons, reference.singletons) << where;
    EXPECT_EQ(run.doc_top_phrases, reference.doc_top_phrases) << where;
    EXPECT_EQ(run.num_edges, reference.num_edges) << where;
  }
}

TEST(CoarseTest, ParallelMatchesSerialReference) {
  const Corpus c = MixtureCorpus();
  for (size_t cap : {0u, 1u, 3u}) {
    CoarseOptions opts;
    opts.max_phrase_degree = cap;
    ExpectMatchesReference(c, opts, "mixture");
  }
  for (size_t threads : {2u, 4u, 8u}) {
    CoarseOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(CoarseClustering(opts).Run(c).stats.parallel_threads, threads);
  }
}

TEST(CoarseTest, ParallelMatchesSerialWithPhraseDegreeCap) {
  // The degree cap is order-sensitive: only a hub phrase's first
  // max_phrase_degree edges in doc-major order survive. The bucket run
  // lists each phrase's documents ascending, so capping its first
  // members must drop the exact edges the replay drops.
  Corpus c;
  for (int i = 0; i < 12; ++i) {
    c.Add("hub shared phrase everywhere plus suffix " + std::to_string(i) +
          " " + std::to_string(i * 3 + 50));
  }
  for (size_t cap : {0u, 1u, 3u}) {
    CoarseOptions opts;
    opts.max_phrase_degree = cap;
    ExpectMatchesReference(c, opts, "hub");
  }
}

TEST(CoarseTest, MatchesReferenceOnDegenerateCorpora) {
  Corpus one;
  one.Add("a single lonely document");
  for (size_t cap : {0u, 1u, 3u}) {
    CoarseOptions opts;
    opts.max_phrase_degree = cap;
    ExpectMatchesReference(Corpus(), opts, "empty");
    ExpectMatchesReference(one, opts, "one doc");
  }
}

TEST(CoarseTest, MatchesReferenceOnGiantComponent) {
  // Single shared words as top phrases percolate the graph into one
  // component holding most of the clustered documents.
  TraffickingGenOptions gen;
  gen.num_benign = 80;
  gen.num_spam_clusters = 2;
  gen.spam_cluster_size_min = 10;
  gen.spam_cluster_size_max = 20;
  gen.num_ht_clusters = 6;
  gen.ht_cluster_size_min = 4;
  gen.ht_cluster_size_max = 10;
  const LabeledAds data = TraffickingGenerator(gen).Generate(/*seed=*/7);
  CoarseOptions opts;
  opts.tfidf.min_ngram = 1;
  opts.tfidf.top_fraction = 0.3;
  const CoarseResult uncapped = CoarseClustering(opts).Run(data.corpus);
  size_t clustered = 0;
  size_t largest = 0;
  for (const std::vector<DocId>& cluster : uncapped.clusters) {
    clustered += cluster.size();
    largest = std::max(largest, cluster.size());
  }
  ASSERT_GT(2 * largest, clustered) << "corpus has no giant component";
  for (size_t cap : {0u, 1u, 3u}) {
    opts.max_phrase_degree = cap;
    ExpectMatchesReference(data.corpus, opts, "giant");
  }
}

TEST(CoarseTest, StatsCarryPerPhaseTimings) {
  Corpus c = MixtureCorpus();
  CoarseOptions opts;
  opts.num_threads = 4;
  CoarseResult r = CoarseClustering(opts).Run(c);
  EXPECT_GE(r.stats.index_seconds, 0.0);
  EXPECT_GE(r.stats.top_phrase_seconds, 0.0);
  EXPECT_GE(r.stats.graph_seconds, 0.0);
  EXPECT_GE(r.stats.components_seconds, 0.0);
  EXPECT_GE(r.stats.total_seconds(), r.stats.index_seconds);
}

TEST(CoarseTest, EdgeCountPositiveWhenClustered) {
  Corpus c;
  c.Add("repeat me exactly word for word please thanks");
  c.Add("repeat me exactly word for word please thanks");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  EXPECT_GT(r.num_edges, 0u);
}

}  // namespace
}  // namespace infoshield
