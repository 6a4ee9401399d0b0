// The incremental ingestion core's differential oracle: after ANY
// sequence of IngestBatch calls, ResultToJson over the engine's result
// must byte-match a fresh InfoShield::Run over the concatenated corpus
// (DESIGN.md §15). These tests drive the oracle across fixed splits,
// random splits of seed corpora (property test), degree-cap forced
// rebuilds, and thread counts — and pin down the reuse accounting that
// makes incrementality worth having.

#include "incremental/incremental_infoshield.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "datagen/trafficking_gen.h"
#include "io/json_writer.h"
#include "mdl/cost_model.h"
#include "util/random.h"

namespace infoshield {
namespace {

std::vector<std::string> GeneratedTexts(uint64_t seed) {
  TraffickingGenOptions o;
  o.num_benign = 60;
  o.num_spam_clusters = 2;
  o.spam_cluster_size_min = 8;
  o.spam_cluster_size_max = 14;
  o.num_ht_clusters = 5;
  o.ht_cluster_size_min = 4;
  o.ht_cluster_size_max = 8;
  LabeledAds data = TraffickingGenerator(o).Generate(seed);
  std::vector<std::string> texts;
  texts.reserve(data.corpus.size());
  for (const Document& doc : data.corpus.docs()) {
    texts.push_back(doc.raw);
  }
  return texts;
}

// The oracle: a fresh batch run over the first `n` texts.
std::string BatchJson(const std::vector<std::string>& texts, size_t n,
                      const InfoShieldOptions& options) {
  Corpus corpus;
  corpus.AddBatch(
      std::vector<std::string>(texts.begin(), texts.begin() + n),
      options.num_threads);
  InfoShield shield(options);
  const InfoShieldResult result = shield.Run(corpus);
  return ResultToJson(result, corpus);
}

std::string IncrementalJson(const IncrementalInfoShield& engine) {
  return ResultToJson(engine.result(), engine.corpus());
}

// Ingests `texts` in batches cut at `splits` (ascending positions, end
// implied), checking the oracle after every batch.
void CheckSplits(const std::vector<std::string>& texts,
                 const std::vector<size_t>& splits,
                 const InfoShieldOptions& options) {
  IncrementalInfoShield engine(options);
  size_t begin = 0;
  std::vector<size_t> ends(splits);
  ends.push_back(texts.size());
  for (size_t end : ends) {
    ASSERT_LE(begin, end);
    Result<IngestStats> stats = engine.IngestBatch(std::vector<std::string>(
        texts.begin() + begin, texts.begin() + end));
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->total_docs, end);
    EXPECT_EQ(stats->dirty_clusters + stats->reused_clusters,
              stats->num_coarse_clusters);
    ASSERT_EQ(IncrementalJson(engine), BatchJson(texts, end, options))
        << "diverged from the batch oracle after ingesting " << end
        << " documents (batch boundary at " << begin << ")";
    begin = end;
  }
  EXPECT_TRUE(engine.ValidateInvariants().ok());
}

TEST(IncrementalTest, EmptyEngineMatchesBatchRunOverEmptyCorpus) {
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  EXPECT_EQ(IncrementalJson(engine), BatchJson({}, 0, options));
  Result<IngestStats> stats = engine.IngestBatch({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batch_docs, 0u);
  EXPECT_EQ(stats->generation, 0u);
}

TEST(IncrementalTest, SingleBatchMatchesBatchRun) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/42);
  InfoShieldOptions options;
  CheckSplits(texts, {}, options);
}

TEST(IncrementalTest, FixedSplitsMatchBatchRunAtEveryPrefix) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/7);
  InfoShieldOptions options;
  // Mixed batch sizes, including a 1-document batch and a large tail.
  CheckSplits(texts, {1, 2, 10, 11, 40, texts.size() / 2}, options);
}

TEST(IncrementalTest, ManySmallBatches) {
  std::vector<std::string> texts = GeneratedTexts(/*seed=*/3);
  texts.resize(40);
  std::vector<size_t> splits;
  for (size_t i = 4; i < texts.size(); i += 4) splits.push_back(i);
  InfoShieldOptions options;
  CheckSplits(texts, splits, options);
}

TEST(IncrementalTest, RandomSplitPropertyTest) {
  // Random batch splits of seed corpora: whatever the cut points, every
  // prefix must byte-match the batch pipeline.
  InfoShieldOptions options;
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::vector<std::string> texts = GeneratedTexts(seed);
    texts.resize(80);
    Rng rng(seed * 977);
    std::vector<size_t> splits;
    size_t at = 0;
    while (true) {
      at += 1 + rng.NextBounded(25);
      if (at >= texts.size()) break;
      splits.push_back(at);
    }
    CheckSplits(texts, splits, options);
  }
}

TEST(IncrementalTest, DegreeCapForcesRebuildAndStillMatches) {
  // With a max_phrase_degree cap, which edges the cap drops depends on
  // each phrase's documents in doc order; the graph rebuilt from the
  // bucket run every batch must still land byte-exact on the oracle.
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/21);
  InfoShieldOptions options;
  options.coarse.max_phrase_degree = 3;
  CheckSplits(texts, {10, 30, 60}, options);
}

TEST(IncrementalTest, ThreadedEngineMatchesSerialOracle) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/42);
  InfoShieldOptions serial;
  InfoShieldOptions threaded;
  threaded.num_threads = 4;
  IncrementalInfoShield engine(threaded);
  const std::vector<size_t> ends = {texts.size() / 3, texts.size()};
  size_t begin = 0;
  for (size_t end : ends) {
    ASSERT_TRUE(engine
                    .IngestBatch(std::vector<std::string>(
                        texts.begin() + begin, texts.begin() + end))
                    .ok());
    EXPECT_EQ(IncrementalJson(engine), BatchJson(texts, end, serial));
    begin = end;
  }
}

TEST(IncrementalTest, UntouchedComponentsReuseCachedFineResults) {
  // Two families of exact duplicates with disjoint wording. Batch 2
  // adds more copies of family A only: family B's docs keep their df
  // pattern (same df for every B phrase, so idf growth rescales all B
  // scores by one positive factor and the top-phrase ORDER holds), and
  // its component membership is unchanged — so family B is served from
  // the fine memo without a single alignment.
  const std::string a = "sweet asian girls new in town call five five five";
  const std::string b = "grand opening best massage downtown walk ins welcome";
  std::vector<std::string> first_batch;
  for (int i = 0; i < 5; ++i) first_batch.push_back(a);
  for (int i = 0; i < 5; ++i) first_batch.push_back(b);

  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  Result<IngestStats> s1 = engine.IngestBatch(first_batch);
  ASSERT_TRUE(s1.ok());
  ASSERT_EQ(s1->num_coarse_clusters, 2u);
  EXPECT_EQ(s1->dirty_clusters, 2u);  // first sight: everything is dirty

  Result<IngestStats> s2 = engine.IngestBatch({a, a, a});
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE(s2->vocab_grew);
  ASSERT_EQ(s2->num_coarse_clusters, 2u);
  EXPECT_EQ(s2->reused_clusters, 1u) << "family B should be a memo hit";
  EXPECT_EQ(s2->dirty_clusters, 1u);
  EXPECT_EQ(s2->dirty_cluster_docs, 8u);  // family A now has 8 members

  // And the oracle still holds, cached results included.
  std::vector<std::string> all = first_batch;
  all.insert(all.end(), {a, a, a});
  EXPECT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options));
}

TEST(IncrementalTest, RepeatedTextsKeepTheCacheAndMatchOracle) {
  // Batches that only repeat already-ingested texts add no vocabulary,
  // so lg V holds still. N and df still move, so old documents'
  // top-phrase sets change, and a cluster holding such a document may
  // claim differently; clusters whose claims hold are memo hits.
  const std::vector<std::string> base = GeneratedTexts(/*seed=*/8);
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  ASSERT_TRUE(engine.IngestBatch(base).ok());
  std::vector<std::string> all = base;
  Rng rng(/*seed=*/17);
  size_t reused = 0;
  size_t old_changed = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::string> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(base[rng.NextIndex(base.size())]);
    }
    Result<IngestStats> stats = engine.IngestBatch(batch);
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->vocab_grew);
    reused += stats->reused_clusters;
    old_changed += stats->changed_docs - stats->batch_docs;
    all.insert(all.end(), batch.begin(), batch.end());
    ASSERT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options))
        << "diverged after round " << round;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(old_changed, 0u);
}

// Each template's member list plus the cluster's noise: what a fine
// result reports about its documents.
std::vector<std::vector<DocId>> FineGroups(const FineResult& result) {
  std::vector<std::vector<DocId>> groups;
  for (const TemplateCluster& tc : result.templates) {
    groups.push_back(tc.members);
  }
  groups.push_back(result.noise);
  return groups;
}

std::vector<PhraseHash> Sorted(std::vector<PhraseHash> phrases) {
  std::sort(phrases.begin(), phrases.end());
  return phrases;
}

TEST(IncrementalTest, ChangedTopPhraseSetReFinesAnUnchangedCluster) {
  // A batch that repeats one base text adds no word, so lg V holds. N
  // still grows, which reorders one old document's top phrases: its set
  // changes while its coarse cluster keeps its member list, and the
  // cluster's fine result changes with it (the claim scan pools a
  // seed's phrase-sharing neighbours). A reuse rule keyed on the member
  // list alone would return the stale result; the memo keys claims by
  // (seed, document) pair and fits by candidate set, so it cannot.
  const std::vector<std::string> base = {
      "w17 w14 w4 w12 w21 w9 w15 w25 w26",
      "w17 w14 w27 w12 w21 w9 w15 w25 w26",
      "w17 w12 w21 w9 w15 w25 w26",
      "w17 w14 w27 w12 w21 w9 w15 w25 w26",
      "w27 w29 w13 w29 w13 w16 w23 w9 w21 w12 w7 w20",
      "w27 w6 w13 w29 w13 w16 w23 w9 w21 w12 w7 w20",
      "w27 w6 w13 w29 w13 w16 w23 w9 w21 w12 w20",
      "w6 w13 w29 w13 w16 w23 w9 w12 w7 w20",
      "w27 w6 w13 w29 w13 w16 w23 w1 w21 w12 w7 w20",
      "w31 w31 w6 w16 w19 w13 w16 w32 w3 w5 w20 w5",
      "w31 w31 w6 w16 w19 w13 w16 w32 w3 w5 w23 w5",
  };
  std::vector<std::string> all = base;
  all.push_back(base[7]);
  InfoShieldOptions options;
  options.coarse.tfidf.top_fraction = 0.2;

  // The batch pipeline's view before and after the batch shows the
  // premise: some cluster keeps its members, a member's set changes,
  // and the cluster's fine result changes.
  Corpus before_corpus;
  before_corpus.AddBatch(base, 1);
  Corpus after_corpus;
  after_corpus.AddBatch(all, 1);
  ASSERT_EQ(after_corpus.vocab().size(), before_corpus.vocab().size());
  const CoarseClustering coarse(options.coarse);
  const CoarseResult before = coarse.Run(before_corpus);
  const CoarseResult after = coarse.Run(after_corpus);
  const FineClustering fine(options.fine);
  const CostModel cost_model = CostModel::ForVocabulary(after_corpus.vocab());
  bool premise = false;
  for (const std::vector<DocId>& members : after.clusters) {
    if (std::find(before.clusters.begin(), before.clusters.end(), members) ==
        before.clusters.end()) {
      continue;
    }
    bool set_changed = false;
    for (DocId d : members) {
      set_changed |= Sorted(before.doc_top_phrases[d]) !=
                     Sorted(after.doc_top_phrases[d]);
    }
    if (!set_changed) continue;
    const FineResult was = fine.RunOnCluster(before_corpus, members,
                                             cost_model,
                                             &before.doc_top_phrases);
    const FineResult now = fine.RunOnCluster(after_corpus, members,
                                             cost_model,
                                             &after.doc_top_phrases);
    premise |= FineGroups(was) != FineGroups(now);
  }
  ASSERT_TRUE(premise);

  IncrementalInfoShield engine(options);
  ASSERT_TRUE(engine.IngestBatch(base).ok());
  Result<IngestStats> stats = engine.IngestBatch({base[7]});
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->vocab_grew);
  EXPECT_GT(stats->changed_docs, stats->batch_docs);
  EXPECT_GT(stats->reused_clusters, 0u);
  EXPECT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options));
}

TEST(IncrementalTest, NewVocabularyReplaysCleanClusters) {
  const std::string a = "sweet asian girls new in town call five five five";
  const std::string b = "grand opening best massage downtown walk ins welcome";
  std::vector<std::string> first_batch = {a, a, a, b, b, b};
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  Result<IngestStats> first = engine.IngestBatch(first_batch);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->fine_alignments, 0u);

  // A batch with brand-new words moves lg V, and with it every cost the
  // fine stage compares. The two families' claims and candidate sets
  // are unchanged, so their alignment work comes from the memo and only
  // the MDL arithmetic is replayed at the new lg V.
  Result<IngestStats> stats =
      engine.IngestBatch({"totally novel wording zzyzx"});
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->vocab_grew);
  EXPECT_GT(stats->reused_clusters, 0u);
  EXPECT_EQ(stats->reused_clusters, stats->num_coarse_clusters);
  EXPECT_EQ(stats->fine_alignments, 0u);

  std::vector<std::string> all = first_batch;
  all.push_back("totally novel wording zzyzx");
  EXPECT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options));
}

TEST(IncrementalTest, VocabularyStepChangesAnUntouchedCluster) {
  // Two exact duplicates are worth a template only when lg V is large
  // enough to pay for it. The base corpus has a small vocabulary, so the
  // pair is claimed but rejected; a batch of one document in brand-new
  // words grows V, and the pair becomes a template. The batch shares no
  // word with the base, so no base document's df, top-phrase set or
  // coarse cluster moves: only lg V does. An engine that reused the
  // cluster's pre-step result would report the pair as noise.
  const std::string pair = "fresh girls in town tonight call now";
  const std::vector<std::string> base = {
      pair, pair, "cheap rooms near the station", "late night pizza delivery",
  };
  std::string novel;
  for (int i = 0; i < 60; ++i) {
    if (!novel.empty()) novel.push_back(' ');
    novel += "novel" + std::to_string(i);
  }
  std::vector<std::string> all = base;
  all.push_back(novel);
  InfoShieldOptions options;

  // The premise, through the batch stages: a cluster keeps its members
  // and every member's top-phrase set, and its fine result changes.
  Corpus before_corpus;
  before_corpus.AddBatch(base, 1);
  Corpus after_corpus;
  after_corpus.AddBatch(all, 1);
  ASSERT_GT(after_corpus.vocab().size(), before_corpus.vocab().size());
  const CoarseClustering coarse(options.coarse);
  const CoarseResult before = coarse.Run(before_corpus);
  const CoarseResult after = coarse.Run(after_corpus);
  const FineClustering fine(options.fine);
  bool premise = false;
  for (const std::vector<DocId>& members : after.clusters) {
    if (std::find(before.clusters.begin(), before.clusters.end(), members) ==
        before.clusters.end()) {
      continue;
    }
    bool set_changed = false;
    for (DocId d : members) {
      set_changed |= Sorted(before.doc_top_phrases[d]) !=
                     Sorted(after.doc_top_phrases[d]);
    }
    if (set_changed) continue;
    const FineResult was = fine.RunOnCluster(
        before_corpus, members, CostModel::ForVocabulary(before_corpus.vocab()),
        &before.doc_top_phrases);
    const FineResult now = fine.RunOnCluster(
        after_corpus, members, CostModel::ForVocabulary(after_corpus.vocab()),
        &after.doc_top_phrases);
    premise |= was.templates.empty() && !now.templates.empty();
  }
  ASSERT_TRUE(premise);

  IncrementalInfoShield engine(options);
  ASSERT_TRUE(engine.IngestBatch(base).ok());
  Result<IngestStats> stats = engine.IngestBatch({novel});
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->vocab_grew);
  EXPECT_EQ(stats->changed_docs, stats->batch_docs);
  EXPECT_EQ(IncrementalJson(engine), BatchJson(all, all.size(), options));
}

TEST(IncrementalTest, IngestAfterIngestGrowsMonotonically) {
  const std::vector<std::string> texts = GeneratedTexts(/*seed=*/5);
  InfoShieldOptions options;
  IncrementalInfoShield engine(options);
  uint64_t last_generation = 0;
  for (size_t i = 0; i + 10 <= 50; i += 10) {
    Result<IngestStats> stats = engine.IngestBatch(std::vector<std::string>(
        texts.begin() + i, texts.begin() + i + 10));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->batch_docs, 10u);
    EXPECT_GT(stats->generation, last_generation);
    last_generation = stats->generation;
    EXPECT_EQ(engine.corpus().size(), i + 10);
  }
  EXPECT_TRUE(engine.ValidateInvariants().ok());
}

}  // namespace
}  // namespace infoshield
