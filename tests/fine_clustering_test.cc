#include "core/fine_clustering.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "core/fine_memo.h"
#include "datagen/trafficking_gen.h"
#include "fine_reference.h"
#include "util/random.h"

namespace infoshield {
namespace {

std::vector<DocId> AllDocs(const Corpus& c) {
  std::vector<DocId> ids(c.size());
  for (size_t i = 0; i < c.size(); ++i) ids[i] = static_cast<DocId>(i);
  return ids;
}

// Enlarges the corpus vocabulary with unique filler tokens (lg V drives
// the MDL trade-off: with a toy-sized vocabulary, raw documents are so
// cheap that templates rightly never pay off). The filler documents are
// NOT part of any cluster under test.
void PadVocabulary(Corpus& c, size_t num_words) {
  std::string text;
  for (size_t i = 0; i < num_words; ++i) {
    if (!text.empty()) text.push_back(' ');
    text += "filler" + std::to_string(i);
    if (text.size() > 200) {
      c.Add(text);
      text.clear();
    }
  }
  if (!text.empty()) c.Add(text);
}

TEST(FineClusteringTest, ExactDuplicatesFormOneTemplate) {
  Corpus c;
  for (int i = 0; i < 5; ++i) {
    c.Add("buy cheap watches now great deal online store");
  }
  // Pad the vocabulary so lg V is realistic.
  c.Add("unrelated filler words apple banana cherry dragon elephant fox");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, {0, 1, 2, 3, 4}, cm);
  ASSERT_EQ(r.templates.size(), 1u);
  EXPECT_EQ(r.templates[0].members.size(), 5u);
  EXPECT_TRUE(r.noise.empty());
  EXPECT_LT(r.cost_after, r.cost_before);
  EXPECT_LT(r.relative_length(), 1.0);
}

TEST(FineClusteringTest, DissimilarDocsBecomeNoise) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta");
  c.Add("uno dos tres cuatro cinco seis");
  c.Add("red orange yellow green blue indigo");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise.size(), 3u);
  EXPECT_DOUBLE_EQ(r.cost_after, r.cost_before);
}

TEST(FineClusteringTest, TwoTemplatesInOneCluster) {
  Corpus c;
  // Group A (4 docs) and group B (4 docs), unrelated to each other.
  for (int i = 0; i < 4; ++i) {
    c.Add("this is a great product and the price is great indeed");
  }
  for (int i = 0; i < 4; ++i) {
    c.Add("i made money working from home call now or visit site");
  }
  std::vector<DocId> cluster = AllDocs(c);
  PadVocabulary(c, 300);
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, cluster, cm);
  ASSERT_EQ(r.templates.size(), 2u);
  EXPECT_EQ(r.templates[0].members, (std::vector<DocId>{0, 1, 2, 3}));
  EXPECT_EQ(r.templates[1].members, (std::vector<DocId>{4, 5, 6, 7}));
}

TEST(FineClusteringTest, SlotDetectedWhereDocsDiffer) {
  Corpus c;
  c.Add("this is a great soap and the 5 dollar price is great");
  c.Add("this is a great chair and the 10 dollar price is great");
  c.Add("this is a great hat and the 3 dollar price is great");
  c.Add("this is a great lamp and the 8 dollar price is great");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  ASSERT_EQ(r.templates.size(), 1u);
  const Template& t = r.templates[0].tmpl;
  EXPECT_GE(t.num_slots(), 1u);
  // The template backbone keeps the shared phrasing.
  std::string text = t.ToString(c.vocab());
  EXPECT_NE(text.find("this is a great"), std::string::npos);
  EXPECT_NE(text.find("dollar price is great"), std::string::npos);
}

TEST(FineClusteringTest, SingleDocClusterIsNoise) {
  Corpus c;
  c.Add("lonely document with no duplicate partner here");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, {0}, cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise, (std::vector<DocId>{0}));
}

TEST(FineClusteringTest, EmptyClusterIsFine) {
  Corpus c;
  c.Add("something");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, {}, cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_TRUE(r.noise.empty());
}

TEST(FineClusteringTest, NearDuplicatesWithEditsStillCluster) {
  Corpus c;
  c.Add("grand opening best massage in town call 5551234 today");
  c.Add("grand opening best massage in town call 5559876 today");
  c.Add("grand opening the best massage in town call 5554321");
  c.Add("grand opening best massage town call 5551111 today now");
  std::vector<DocId> cluster = AllDocs(c);
  PadVocabulary(c, 300);
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, cluster, cm);
  ASSERT_EQ(r.templates.size(), 1u);
  EXPECT_EQ(r.templates[0].members.size(), 4u);
}

TEST(FineClusteringTest, ConsensusSearchExhaustiveMatchesDichotomous) {
  Corpus c;
  for (int i = 0; i < 6; ++i) {
    c.Add("identical text for consensus search testing purposes here");
  }
  CostModel cm = CostModel::ForVocabulary(c.vocab());

  FineOptions dicho;
  FineOptions exhaustive;
  exhaustive.exhaustive_consensus_search = true;
  FineResult r1 = FineClustering(dicho).RunOnCluster(c, AllDocs(c), cm);
  FineResult r2 = FineClustering(exhaustive).RunOnCluster(c, AllDocs(c), cm);
  ASSERT_EQ(r1.templates.size(), 1u);
  ASSERT_EQ(r2.templates.size(), 1u);
  EXPECT_DOUBLE_EQ(r1.cost_after, r2.cost_after);
}

TEST(FineClusteringTest, CostNeverIncreases) {
  Corpus c;
  for (int i = 0; i < 3; ++i) c.Add("aaa bbb ccc ddd eee fff");
  c.Add("zzz yyy xxx www vvv uuu");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  EXPECT_LE(r.cost_after, r.cost_before);
}

TEST(FineClusteringTest, RelativeLengthRespectsLowerBound) {
  Corpus c;
  for (int i = 0; i < 10; ++i) {
    c.Add("exact duplicate spam message here repeated verbatim each time");
  }
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  ASSERT_EQ(r.templates.size(), 1u);
  const double bound =
      RelativeLengthLowerBound(1, 10, cm.lg_vocab());
  EXPECT_GE(r.relative_length(), bound * 0.999);
}

TEST(FineClusteringTest, ProfileBackendFindsSameDuplicates) {
  Corpus c;
  for (int i = 0; i < 5; ++i) {
    c.Add("buy cheap watches now great deal online store");
  }
  std::vector<DocId> cluster = AllDocs(c);
  PadVocabulary(c, 300);
  CostModel cm = CostModel::ForVocabulary(c.vocab());

  FineOptions poa_opts;
  poa_opts.msa_backend = MsaBackend::kPoa;
  FineOptions profile_opts;
  profile_opts.msa_backend = MsaBackend::kProfile;
  FineResult poa = FineClustering(poa_opts).RunOnCluster(c, cluster, cm);
  FineResult profile =
      FineClustering(profile_opts).RunOnCluster(c, cluster, cm);
  ASSERT_EQ(poa.templates.size(), 1u);
  ASSERT_EQ(profile.templates.size(), 1u);
  EXPECT_EQ(poa.templates[0].members, profile.templates[0].members);
  // On exact duplicates both backends recover the identical consensus.
  EXPECT_EQ(poa.templates[0].tmpl.tokens, profile.templates[0].tmpl.tokens);
  EXPECT_DOUBLE_EQ(poa.cost_after, profile.cost_after);
}

TEST(FineClusteringTest, NeighborSeedingMatchesFullScanOnCampaign) {
  Corpus c;
  std::vector<DocId> cluster;
  for (int i = 0; i < 6; ++i) {
    cluster.push_back(
        c.Add("grand opening best massage in town call today " +
              std::to_string(1000 + i)));
  }
  PadVocabulary(c, 300);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  // Full scan.
  FineClustering fine;
  FineResult full = fine.RunOnCluster(c, cluster, cm);
  // Neighbor seeding with a shared phrase index: every campaign doc
  // lists the same campaign phrase.
  std::vector<std::vector<PhraseHash>> phrases(c.size());
  for (DocId d : cluster) phrases[d] = {0xABCDEFULL};
  FineResult seeded = fine.RunOnCluster(c, cluster, cm, &phrases);
  ASSERT_EQ(full.templates.size(), 1u);
  ASSERT_EQ(seeded.templates.size(), 1u);
  EXPECT_EQ(full.templates[0].members, seeded.templates[0].members);
  EXPECT_DOUBLE_EQ(full.cost_after, seeded.cost_after);
}

TEST(FineClusteringTest, NeighborSeedingIsolatesPhraseDisjointDocs) {
  // Two docs that would pairwise compress but share no top phrase: with
  // neighbor seeding they are never compared, so each becomes noise.
  Corpus c;
  std::vector<DocId> cluster;
  cluster.push_back(c.Add("same words here every single time always"));
  cluster.push_back(c.Add("same words here every single time always"));
  PadVocabulary(c, 300);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<PhraseHash>> phrases(c.size());
  phrases[cluster[0]] = {1};
  phrases[cluster[1]] = {2};  // disjoint phrase sets
  FineClustering fine;
  FineResult r = fine.RunOnCluster(c, cluster, cm, &phrases);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise.size(), 2u);
}

// A mixed cluster exercising every hot-path branch: near-duplicates
// (dominant), a variant sub-family, and unrelated noise.
Corpus MixedCluster(std::vector<DocId>* ids) {
  Corpus c;
  c.Add("grand opening best massage in town call 5551234 today");
  c.Add("grand opening best massage in town call 5559876 today");
  c.Add("grand opening best massage in town call 5554321 today");
  c.Add("grand opening the best massage in town call 5551111");
  c.Add("sweet amy here available until 9pm special rate 60");
  c.Add("sweet bella here available until 10pm special rate 80");
  c.Add("sweet cici here available late night special rate 50");
  c.Add("totally unrelated text about cooking pasta at home tonight");
  *ids = AllDocs(c);
  PadVocabulary(c, 400);
  return c;
}

TEST(FineClusteringTest, NaiveCostingMatchesOptimizedExactly) {
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  CostModel cm = CostModel::ForVocabulary(c.vocab());

  FineResult fast = FineClustering(FineOptions{}).RunOnCluster(c, ids, cm);
  FineResult slow = reference::ReferenceRunOnCluster(
      FineOptions{}, reference::Costing::kNaive, c, ids, cm, nullptr);

  // Bitwise-equal costs, identical structure.
  ASSERT_EQ(fast.templates.size(), slow.templates.size());
  EXPECT_EQ(fast.cost_before, slow.cost_before);
  EXPECT_EQ(fast.cost_after, slow.cost_after);
  EXPECT_EQ(fast.noise, slow.noise);
  for (size_t t = 0; t < fast.templates.size(); ++t) {
    EXPECT_EQ(fast.templates[t].tmpl.tokens, slow.templates[t].tmpl.tokens);
    EXPECT_EQ(fast.templates[t].tmpl.SlotGaps(),
              slow.templates[t].tmpl.SlotGaps());
    EXPECT_EQ(fast.templates[t].members, slow.templates[t].members);
    ASSERT_EQ(fast.templates[t].encodings.size(),
              slow.templates[t].encodings.size());
    for (size_t m = 0; m < fast.templates[t].encodings.size(); ++m) {
      EXPECT_EQ(fast.templates[t].encodings[m].base_cost,
                slow.templates[t].encodings[m].base_cost);
      EXPECT_EQ(fast.templates[t].encodings[m].slot_words,
                slow.templates[t].encodings[m].slot_words);
    }
  }

  // The optimized path must actually be doing less work.
  EXPECT_LT(fast.stats.alignments_computed, slow.stats.alignments_computed);
  EXPECT_EQ(fast.stats.consensus_probes, slow.stats.consensus_probes);
  EXPECT_GT(fast.stats.consensus_probes, 0u);
  EXPECT_EQ(slow.stats.consensus_cache_hits, 0u);
}

TEST(FineClusteringTest, SearchConsensusReturnsWinnerEvaluation) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma spoon epsilon zeta eta theta");
  PadVocabulary(c, 200);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<TokenId>> docs;
  for (size_t i = 0; i < 3; ++i) docs.push_back(c.doc(i).tokens);
  PoaGraph graph(docs[0]);
  graph.AddSequence(docs[1]);
  graph.AddSequence(docs[2]);

  FineClustering fine;
  FineStageStats stats;
  FineClustering::ConsensusChoice choice =
      fine.SearchConsensus(graph, docs, cm, &stats);

  // Same winner, slots and cost bits as the naive search.
  const FineClustering::ConsensusChoice naive =
      reference::SearchConsensusNaive(
          fine.options(),
          [&graph](size_t h) { return graph.ConsensusAtThreshold(h); }, docs,
          cm, nullptr);
  EXPECT_EQ(choice.consensus, naive.consensus);
  EXPECT_EQ(choice.tmpl.slot_at_gap, naive.tmpl.slot_at_gap);
  EXPECT_EQ(choice.cost, naive.cost);
  EXPECT_EQ(choice.tmpl.tokens, choice.consensus);
  ASSERT_EQ(choice.alignments.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_TRUE(
        AlignmentIsConsistent(choice.alignments[i], choice.consensus,
                              docs[i]));
  }
  // choice.cost is the search objective: template cost + Σ base.
  double expected =
      cm.TemplateCost(choice.tmpl.length(), choice.tmpl.num_slots());
  for (const Alignment& a : choice.alignments) {
    expected += EncodeDocumentWithAlignment(choice.tmpl, a, cm).base_cost;
  }
  EXPECT_EQ(choice.cost, expected);
  EXPECT_GT(stats.consensus_probes, 0u);
}

TEST(FineClusteringTest, ConsensusCacheHitsOnNearDuplicates) {
  // Near-duplicate candidates: most thresholds select the same consensus,
  // so the dichotomous search's probes should mostly hit the cache.
  Corpus c;
  for (int i = 0; i < 12; ++i) {
    c.Add("repeat offer best deal call 555000" + std::to_string(i % 2) +
          " now");
  }
  PadVocabulary(c, 200);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<TokenId>> docs;
  for (size_t i = 0; i < 12; ++i) docs.push_back(c.doc(i).tokens);
  PoaGraph graph(docs[0]);
  for (size_t i = 1; i < docs.size(); ++i) graph.AddSequence(docs[i]);

  FineClustering fine;
  FineStageStats stats;
  fine.SearchConsensus(graph, docs, cm, &stats);
  EXPECT_GT(stats.consensus_cache_hits, 0u);
  EXPECT_LE(stats.consensus_cache_hits, stats.consensus_probes);
}

TEST(FineClusteringTest, ExhaustiveMatchesDichotomousOnVariedCluster) {
  // The original equivalence test used identical documents; with probe
  // caching in place, re-check it on a cluster whose cost curve actually
  // varies with the threshold, in production and in the naive reference.
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  for (bool naive : {false, true}) {
    auto run = [&](const FineOptions& options) {
      return naive ? reference::ReferenceRunOnCluster(
                         options, reference::Costing::kNaive, c, ids, cm,
                         nullptr)
                   : FineClustering(options).RunOnCluster(c, ids, cm);
    };
    FineOptions dicho;
    FineOptions exhaustive;
    exhaustive.exhaustive_consensus_search = true;
    FineResult r1 = run(dicho);
    FineResult r2 = run(exhaustive);
    ASSERT_EQ(r1.templates.size(), r2.templates.size());
    // Dichotomous search may legitimately probe fewer thresholds, but on
    // this cluster both find the same model.
    EXPECT_EQ(r1.cost_after, r2.cost_after);
    for (size_t t = 0; t < r1.templates.size(); ++t) {
      EXPECT_EQ(r1.templates[t].tmpl.tokens, r2.templates[t].tmpl.tokens);
    }
  }
}

// --- Claim/fit/decide vs the original sequential loop ---
//
// reference::ReferenceRunOnCluster (fine_reference.h) is Algorithm 4 as
// one greedy loop; the production claim/fit/decide split must agree with
// it field by field, cost bits included.

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Everything a FineResult reports except its work counters: the fields
// the naive reference must reproduce.
void ExpectSameModel(const FineResult& want, const FineResult& got) {
  EXPECT_EQ(Bits(want.cost_before), Bits(got.cost_before));
  EXPECT_EQ(Bits(want.cost_after), Bits(got.cost_after));
  EXPECT_EQ(want.noise, got.noise);
  ASSERT_EQ(want.templates.size(), got.templates.size());
  for (size_t t = 0; t < want.templates.size(); ++t) {
    const TemplateCluster& w = want.templates[t];
    const TemplateCluster& g = got.templates[t];
    EXPECT_EQ(w.tmpl.tokens, g.tmpl.tokens);
    EXPECT_EQ(w.tmpl.slot_at_gap, g.tmpl.slot_at_gap);
    EXPECT_EQ(w.members, g.members);
    ASSERT_EQ(w.encodings.size(), g.encodings.size());
    for (size_t m = 0; m < w.encodings.size(); ++m) {
      const DocEncoding& we = w.encodings[m];
      const DocEncoding& ge = g.encodings[m];
      EXPECT_EQ(Bits(we.base_cost), Bits(ge.base_cost));
      EXPECT_EQ(we.slot_words, ge.slot_words);
      EXPECT_EQ(we.summary.alignment_length, ge.summary.alignment_length);
      EXPECT_EQ(we.summary.unmatched, ge.summary.unmatched);
      EXPECT_EQ(we.summary.inserted_or_substituted,
                ge.summary.inserted_or_substituted);
      EXPECT_EQ(we.summary.slot_word_counts, ge.summary.slot_word_counts);
      ASSERT_EQ(we.columns.size(), ge.columns.size());
      for (size_t k = 0; k < we.columns.size(); ++k) {
        EXPECT_EQ(we.columns[k].kind, ge.columns[k].kind);
        EXPECT_EQ(we.columns[k].template_token, ge.columns[k].template_token);
        EXPECT_EQ(we.columns[k].doc_token, ge.columns[k].doc_token);
        EXPECT_EQ(we.columns[k].gap, ge.columns[k].gap);
      }
    }
  }
}

// Everything a FineResult reports except the alignment and MSA counters,
// the only fields a FineMemo changes.
void ExpectSameFineOutput(const FineResult& want, const FineResult& got) {
  ExpectSameModel(want, got);
  EXPECT_EQ(want.stats.consensus_probes, got.stats.consensus_probes);
  EXPECT_EQ(want.stats.consensus_cache_hits, got.stats.consensus_cache_hits);
  EXPECT_EQ(want.stats.slot_candidates_evaluated,
            got.stats.slot_candidates_evaluated);
}

void ExpectSameFineResult(const FineResult& want, const FineResult& got) {
  ExpectSameFineOutput(want, got);
  EXPECT_EQ(want.stats.alignments_computed, got.stats.alignments_computed);
}

// Runs the reference loop per cluster, then RunOnClusters over all of
// them at 1/2/3/4/8 threads and RunOnCluster per cluster, comparing each
// against the reference. With the production search in the loop every
// field must match; with the naive costing, the model and the probe
// count (the two searches probe the same thresholds).
void ExpectMatchesReference(
    const FineOptions& options, reference::Costing costing,
    const Corpus& corpus, const std::vector<std::vector<DocId>>& clusters,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases) {
  const CostModel cm = CostModel::ForVocabulary(corpus.vocab());
  const FineClustering fine(options);
  std::vector<FineResult> want;
  std::vector<const std::vector<DocId>*> cluster_ptrs;
  for (const std::vector<DocId>& c : clusters) {
    want.push_back(reference::ReferenceRunOnCluster(options, costing, corpus,
                                                    c, cm, doc_top_phrases));
    cluster_ptrs.push_back(&c);
  }
  auto expect_same = [costing](const FineResult& w, const FineResult& g) {
    if (costing == reference::Costing::kProduction) {
      ExpectSameFineResult(w, g);
    } else {
      ExpectSameModel(w, g);
      EXPECT_EQ(w.stats.consensus_probes, g.stats.consensus_probes);
    }
  };
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    SCOPED_TRACE("RunOnCluster, cluster " + std::to_string(ci));
    expect_same(want[ci],
                fine.RunOnCluster(corpus, clusters[ci], cm, doc_top_phrases));
  }
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const std::vector<FineResult> got = fine.RunOnClusters(
        corpus, cluster_ptrs, cm, doc_top_phrases, threads, nullptr);
    ASSERT_EQ(got.size(), want.size());
    for (size_t ci = 0; ci < clusters.size(); ++ci) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", cluster " +
                   std::to_string(ci));
      expect_same(want[ci], got[ci]);
    }
  }
}

// A generated ad corpus whose coarse stage (single shared words allowed
// as top phrases) percolates into one giant component plus a few small
// ones — the skewed shape the flat fan-out exists for.
struct GiantComponentCorpus {
  LabeledAds data;
  CoarseResult coarse;
};

GiantComponentCorpus MakeGiantComponentCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 80;
  o.num_spam_clusters = 2;
  o.spam_cluster_size_min = 10;
  o.spam_cluster_size_max = 20;
  o.num_ht_clusters = 8;
  o.ht_cluster_size_min = 4;
  o.ht_cluster_size_max = 10;
  GiantComponentCorpus g{TraffickingGenerator(o).Generate(/*seed=*/11), {}};
  CoarseOptions coarse;
  coarse.tfidf.min_ngram = 1;
  coarse.tfidf.top_fraction = 0.3;
  g.coarse = CoarseClustering(coarse).Run(g.data.corpus);
  return g;
}

TEST(FineClusteringReferenceTest, GiantComponentMatchesAtEveryThreadCount) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  size_t clustered = 0;
  size_t largest = 0;
  for (const std::vector<DocId>& c : g.coarse.clusters) {
    clustered += c.size();
    largest = std::max(largest, c.size());
  }
  ASSERT_GT(2 * largest, clustered) << "corpus has no giant component";
  const CostModel cm = CostModel::ForVocabulary(g.data.corpus.vocab());
  size_t templates = 0;
  for (const std::vector<DocId>& c : g.coarse.clusters) {
    templates += reference::ReferenceRunOnCluster(
                     FineOptions{}, reference::Costing::kProduction,
                     g.data.corpus, c, cm, &g.coarse.doc_top_phrases)
                     .templates.size();
  }
  ASSERT_GT(templates, 1u);
  ExpectMatchesReference(FineOptions{}, reference::Costing::kProduction,
                         g.data.corpus, g.coarse.clusters,
                         &g.coarse.doc_top_phrases);
}

TEST(FineClusteringReferenceTest, FullScanWithoutTopPhrasesMatches) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  ExpectMatchesReference(FineOptions{}, reference::Costing::kProduction,
                         g.data.corpus, g.coarse.clusters, nullptr);
}

TEST(FineClusteringReferenceTest, MinTemplateSupportThreeMatches) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  FineOptions options;
  options.min_template_support = 3;
  ExpectMatchesReference(options, reference::Costing::kProduction,
                         g.data.corpus, g.coarse.clusters,
                         &g.coarse.doc_top_phrases);
  ExpectMatchesReference(options, reference::Costing::kProduction,
                         g.data.corpus, g.coarse.clusters, nullptr);
}

TEST(FineClusteringReferenceTest, EmptyAndOneDocumentClustersMatch) {
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  std::vector<std::vector<PhraseHash>> phrases(c.size());
  for (DocId d : ids) phrases[d] = {0x1234ULL};
  const std::vector<std::vector<DocId>> clusters = {{}, {ids[0]}, ids, {}};
  ExpectMatchesReference(FineOptions{}, reference::Costing::kProduction, c,
                         clusters, &phrases);
  ExpectMatchesReference(FineOptions{}, reference::Costing::kProduction, c,
                         clusters, nullptr);
  const CostModel cm = CostModel::ForVocabulary(c.vocab());
  EXPECT_TRUE(FineClustering()
                  .RunOnClusters(c, {}, cm, nullptr, /*num_threads=*/4,
                                 nullptr)
                  .empty());
}

TEST(FineClusteringReferenceTest, NaiveCostingAndProfileBackendMatch) {
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  FineOptions profile;
  profile.msa_backend = MsaBackend::kProfile;
  ExpectMatchesReference(FineOptions{}, reference::Costing::kNaive, c, {ids},
                         nullptr);
  ExpectMatchesReference(profile, reference::Costing::kNaive, c, {ids},
                         nullptr);
  ExpectMatchesReference(profile, reference::Costing::kProduction, c, {ids},
                         nullptr);
}

TEST(FineClusteringTest, TopPhraseOrderDoesNotReachResult) {
  // The incremental engine marks a document changed only when its
  // top-phrase SET changes, trusting that the claim scan sorts what it
  // reads of a document's phrases. Shuffling every document's list
  // (seeded) must therefore leave every result bit-identical.
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  CoarseResult trafficking = CoarseClustering().Run(g.data.corpus);
  ASSERT_FALSE(trafficking.clusters.empty());
  const CostModel cm = CostModel::ForVocabulary(g.data.corpus.vocab());
  Rng rng(/*seed=*/29);
  for (const CoarseResult* coarse : {&g.coarse, &trafficking}) {
    std::vector<std::vector<PhraseHash>> shuffled = coarse->doc_top_phrases;
    size_t reordered = 0;
    for (std::vector<PhraseHash>& phrases : shuffled) {
      const std::vector<PhraseHash> before = phrases;
      rng.Shuffle(phrases);
      if (phrases != before) ++reordered;
    }
    ASSERT_GT(reordered, 0u) << "the shuffle moved no list";
    std::vector<const std::vector<DocId>*> clusters;
    for (const std::vector<DocId>& c : coarse->clusters) {
      clusters.push_back(&c);
    }
    for (size_t threads : {1u, 4u}) {
      const FineClustering fine;
      const std::vector<FineResult> want =
          fine.RunOnClusters(g.data.corpus, clusters, cm,
                             &coarse->doc_top_phrases, threads, nullptr);
      const std::vector<FineResult> got = fine.RunOnClusters(
          g.data.corpus, clusters, cm, &shuffled, threads, nullptr);
      ASSERT_EQ(got.size(), want.size());
      for (size_t ci = 0; ci < want.size(); ++ci) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", cluster " +
                     std::to_string(ci));
        ExpectSameFineResult(want[ci], got[ci]);
      }
    }
  }
}

TEST(FineClusteringTest, SlotDetectionMarksTheVaryingGap) {
  Corpus c;
  c.Add("one two soap four five");
  c.Add("one two chair four five");
  c.Add("one two hat four five");
  CostModel cm(10.0);
  // Consensus is the shared backbone.
  Vocabulary& v = const_cast<Corpus&>(c).mutable_vocab();
  const std::vector<TokenId> backbone = {v.Find("one"), v.Find("two"),
                                         v.Find("four"), v.Find("five")};
  std::vector<std::vector<TokenId>> docs;
  for (const Document& d : c.docs()) docs.push_back(d.tokens);

  // The naive reference on the backbone's alignments.
  Template tmpl(backbone);
  std::vector<Alignment> alignments;
  for (const std::vector<TokenId>& d : docs) {
    alignments.push_back(NeedlemanWunsch(tmpl.tokens, d));
  }
  reference::DetectSlotsNaive(tmpl, alignments, cm, nullptr);
  EXPECT_TRUE(tmpl.HasSlotAtGap(2));
  EXPECT_EQ(tmpl.num_slots(), 1u);

  // The production search picks the backbone and the same slot.
  PoaGraph graph(docs[0]);
  for (size_t i = 1; i < docs.size(); ++i) graph.AddSequence(docs[i]);
  const FineClustering::ConsensusChoice choice =
      FineClustering().SearchConsensus(graph, docs, cm);
  EXPECT_EQ(choice.tmpl.tokens, backbone);
  EXPECT_EQ(choice.tmpl.slot_at_gap, tmpl.slot_at_gap);
}

// --- FineMemo: the lg V-independent work kept across runs ---
//
// Every cost the fine stage compares carries lg V; the alignments, MSA
// consensuses and gap-cost profiles underneath do not. A run with a
// memo filled at one lg V must reproduce, bit for bit, a memo-less run
// at any other lg V, including where that lg V step flips a claim, a
// slot or an MDL decision.

std::vector<const std::vector<DocId>*> Pointers(
    const std::vector<std::vector<DocId>>& clusters) {
  std::vector<const std::vector<DocId>*> ptrs;
  for (const std::vector<DocId>& c : clusters) ptrs.push_back(&c);
  return ptrs;
}

std::vector<FineResult> RunAt(
    const FineClustering& fine, const Corpus& corpus,
    const std::vector<std::vector<DocId>>& clusters, double lg_vocab,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
    size_t threads, FineMemo* memo) {
  return fine.RunOnClusters(corpus, Pointers(clusters), CostModel(lg_vocab),
                            doc_top_phrases, threads, memo);
}

bool Overlaps(const std::vector<DocId>& a, const std::vector<DocId>& b) {
  for (DocId d : a) {
    if (std::find(b.begin(), b.end(), d) != b.end()) return true;
  }
  return false;
}

// A claim changed: a template of `x` shares documents with a template of
// `y` but has a different member list.
bool ClaimFlipped(const std::vector<FineResult>& x,
                  const std::vector<FineResult>& y) {
  for (size_t ci = 0; ci < x.size(); ++ci) {
    for (const TemplateCluster& a : x[ci].templates) {
      for (const TemplateCluster& b : y[ci].templates) {
        if (a.members != b.members && Overlaps(a.members, b.members)) {
          return true;
        }
      }
    }
  }
  return false;
}

// A slot decision changed: the same member list is a template in both,
// with a different number of slots.
bool SlotFlipped(const std::vector<FineResult>& x,
                 const std::vector<FineResult>& y) {
  for (size_t ci = 0; ci < x.size(); ++ci) {
    for (const TemplateCluster& a : x[ci].templates) {
      for (const TemplateCluster& b : y[ci].templates) {
        if (a.members == b.members &&
            a.tmpl.num_slots() != b.tmpl.num_slots()) {
          return true;
        }
      }
    }
  }
  return false;
}

// An MDL decision changed: a template of `x` is all noise in `y`.
bool DecisionFlipped(const std::vector<FineResult>& x,
                     const std::vector<FineResult>& y) {
  for (size_t ci = 0; ci < x.size(); ++ci) {
    for (const TemplateCluster& a : x[ci].templates) {
      bool all_noise = true;
      for (DocId d : a.members) {
        all_noise &= std::binary_search(y[ci].noise.begin(),
                                        y[ci].noise.end(), d);
      }
      if (all_noise) return true;
    }
  }
  return false;
}

size_t AlignmentWork(const std::vector<FineResult>& results) {
  size_t work = 0;
  for (const FineResult& r : results) {
    work += r.stats.alignments_computed + r.stats.msa_sequences_added;
  }
  return work;
}

// Fills a memo at lg V `a`, then replays it at each of `bs` in turn; at
// every lg V, at 1 and 4 threads, each result must be bit-identical to
// a memo-less run.
void ExpectMemoReplaysExactly(
    const FineOptions& options, const Corpus& corpus,
    const std::vector<std::vector<DocId>>& clusters,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases, double a,
    const std::vector<double>& bs) {
  const FineClustering fine(options);
  for (size_t threads : {1u, 4u}) {
    FineMemo memo;
    std::vector<double> lgs = {a};
    lgs.insert(lgs.end(), bs.begin(), bs.end());
    for (double lg : lgs) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", lg V " +
                   std::to_string(lg));
      const std::vector<FineResult> want =
          RunAt(fine, corpus, clusters, lg, doc_top_phrases, threads, nullptr);
      const std::vector<FineResult> got =
          RunAt(fine, corpus, clusters, lg, doc_top_phrases, threads, &memo);
      ASSERT_EQ(got.size(), want.size());
      for (size_t ci = 0; ci < want.size(); ++ci) {
        SCOPED_TRACE("cluster " + std::to_string(ci));
        ExpectSameFineOutput(want[ci], got[ci]);
      }
      EXPECT_TRUE(memo.ValidateInvariants(corpus.size()).ok());
    }
  }
}

// The giant-component corpus's lg V is 10.6. At 12 its candidate sets
// differ from those at 20, one of its templates keeps its members but
// not its slots at 14, and two of its templates are rejected at 11.
constexpr double kFlipLgA = 12.0;

TEST(FineMemoTest, LgVStepFlipsClaimSlotAndDecisionWithoutMemo) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  const FineClustering fine;
  auto run = [&](double lg) {
    return RunAt(fine, g.data.corpus, g.coarse.clusters, lg,
                 &g.coarse.doc_top_phrases, 1, nullptr);
  };
  const std::vector<FineResult> at_a = run(kFlipLgA);
  EXPECT_TRUE(ClaimFlipped(at_a, run(20.0)));
  EXPECT_TRUE(SlotFlipped(at_a, run(14.0)));
  EXPECT_TRUE(DecisionFlipped(at_a, run(11.0)));
  // And at one lg V none of the three differ.
  EXPECT_FALSE(ClaimFlipped(at_a, run(kFlipLgA)));
  EXPECT_FALSE(SlotFlipped(at_a, run(kFlipLgA)));
  EXPECT_FALSE(DecisionFlipped(at_a, run(kFlipLgA)));
}

TEST(FineMemoTest, ReplayAcrossLgVMatchesMemolessRuns) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  const std::vector<double> bs = {11.0, 14.0, 20.0, 5.0, kFlipLgA};
  ExpectMemoReplaysExactly(FineOptions{}, g.data.corpus, g.coarse.clusters,
                           &g.coarse.doc_top_phrases, kFlipLgA, bs);
  // The default coarse stage on the same trafficking corpus.
  const CoarseResult trafficking = CoarseClustering().Run(g.data.corpus);
  ASSERT_GT(trafficking.clusters.size(), 1u);
  ExpectMemoReplaysExactly(FineOptions{}, g.data.corpus, trafficking.clusters,
                           &trafficking.doc_top_phrases, kFlipLgA, bs);
}

TEST(FineMemoTest, ReplayMatchesAcrossOptionsAndScanModes) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  const std::vector<double> bs = {11.0, 20.0};
  FineOptions exhaustive;
  exhaustive.exhaustive_consensus_search = true;
  FineOptions profile;
  profile.msa_backend = MsaBackend::kProfile;
  FineOptions support3;
  support3.min_template_support = 3;
  for (const FineOptions& options : {exhaustive, profile, support3}) {
    ExpectMemoReplaysExactly(options, g.data.corpus, g.coarse.clusters,
                             &g.coarse.doc_top_phrases, kFlipLgA, bs);
  }
  // Full scans, and clusters listed in descending DocId order (the
  // claim pools then do not ascend, and the memo sorts its pair lists).
  ExpectMemoReplaysExactly(FineOptions{}, g.data.corpus, g.coarse.clusters,
                           nullptr, kFlipLgA, bs);
  std::vector<std::vector<DocId>> reversed = g.coarse.clusters;
  for (std::vector<DocId>& c : reversed) std::reverse(c.begin(), c.end());
  ExpectMemoReplaysExactly(FineOptions{}, g.data.corpus, reversed,
                           &g.coarse.doc_top_phrases, kFlipLgA, bs);
}

TEST(FineMemoTest, FullHitComputesNoAlignment) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  const FineClustering fine;
  for (size_t threads : {1u, 4u}) {
    FineMemo memo;
    const std::vector<FineResult> first =
        RunAt(fine, g.data.corpus, g.coarse.clusters, kFlipLgA,
              &g.coarse.doc_top_phrases, threads, &memo);
    EXPECT_GT(AlignmentWork(first), 0u);
    EXPECT_GT(memo.num_sets(), 0u);
    EXPECT_GT(memo.num_pairs(), 0u);
    const std::vector<FineResult> again =
        RunAt(fine, g.data.corpus, g.coarse.clusters, kFlipLgA,
              &g.coarse.doc_top_phrases, threads, &memo);
    EXPECT_EQ(AlignmentWork(again), 0u);
    ASSERT_EQ(again.size(), first.size());
    for (size_t ci = 0; ci < first.size(); ++ci) {
      ExpectSameFineOutput(first[ci], again[ci]);
    }
  }
}

TEST(FineMemoTest, KeepsOnlyWhatTheLastRunUsed) {
  GiantComponentCorpus g = MakeGiantComponentCorpus();
  ASSERT_GE(g.coarse.clusters.size(), 2u);
  const FineClustering fine;
  const std::vector<std::vector<DocId>> first = {g.coarse.clusters[0]};
  const std::vector<std::vector<DocId>> second = {g.coarse.clusters[1]};
  FineMemo memo;
  RunAt(fine, g.data.corpus, g.coarse.clusters, kFlipLgA,
        &g.coarse.doc_top_phrases, 1, &memo);
  const size_t all_sets = memo.num_sets();
  RunAt(fine, g.data.corpus, first, kFlipLgA, &g.coarse.doc_top_phrases, 1,
        &memo);
  EXPECT_LT(memo.num_sets(), all_sets);
  EXPECT_LE(memo.num_seeds(), first[0].size());
  // The first cluster is still a full hit; the second was evicted.
  EXPECT_EQ(AlignmentWork(RunAt(fine, g.data.corpus, first, kFlipLgA,
                                &g.coarse.doc_top_phrases, 1, &memo)),
            0u);
  EXPECT_GT(AlignmentWork(RunAt(fine, g.data.corpus, second, kFlipLgA,
                                &g.coarse.doc_top_phrases, 1, &memo)),
            0u);
}

TEST(FineMemoTest, ReplayedAlignmentEqualsNeedlemanWunsch) {
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  for (DocId a : ids) {
    for (DocId b : ids) {
      const Alignment nw = NeedlemanWunsch(c.doc(a).tokens, c.doc(b).tokens);
      const Alignment replayed = ReplayAlignment(
          AlignmentOpTypes(nw), c.doc(a).tokens, c.doc(b).tokens);
      EXPECT_EQ(replayed.ops, nw.ops);
    }
  }
}

}  // namespace
}  // namespace infoshield
