#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/trafficking_gen.h"
#include "tfidf/df_run.h"
#include "tfidf/snapshot_df_table.h"
#include "util/random.h"

namespace infoshield {
namespace {

Corpus SmallCorpus() {
  Corpus c;
  c.Add("the quick brown fox jumps");
  c.Add("the quick brown fox runs");
  c.Add("the lazy dog sleeps all day");
  return c;
}

TEST(TfidfTest, DocumentFrequencyCountsDocsNotOccurrences) {
  Corpus c;
  c.Add("spam spam spam");
  c.Add("spam once");
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  TokenId spam = c.vocab().Find("spam");
  PhraseHash h = HashNgram(&spam, 1);
  EXPECT_EQ(index.DocumentFrequency(h), 2u);  // 2 docs, not 4 occurrences
}

TEST(TfidfTest, UnseenPhraseHasZeroDf) {
  TfidfIndex index;
  index.Build(SmallCorpus(), TfidfOptions{});
  EXPECT_EQ(index.DocumentFrequency(0xDEADBEEF), 0u);
}

TEST(TfidfTest, CommonPhraseScoresZero) {
  // "the" appears in every document: idf = log(3/3) = 0.
  Corpus c = SmallCorpus();
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  TokenId the = c.vocab().Find("the");
  EXPECT_DOUBLE_EQ(index.Score(HashNgram(&the, 1), 1), 0.0);
}

TEST(TfidfTest, RarerPhraseScoresHigher) {
  Corpus c = SmallCorpus();
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  TokenId quick = c.vocab().Find("quick");  // df 2
  TokenId lazy = c.vocab().Find("lazy");    // df 1
  EXPECT_GT(index.Score(HashNgram(&lazy, 1), 1),
            index.Score(HashNgram(&quick, 1), 1));
}

TEST(TfidfTest, TopPhrasesSkipDfOne) {
  Corpus c = SmallCorpus();
  TfidfOptions opts;
  opts.min_df = 2;
  TfidfIndex index;
  index.Build(c, opts);
  // Doc 2 shares only "the" (df 3) with others; all other phrases are
  // df-1 and skipped, so at most "the"-based shared phrases survive.
  for (const ScoredPhrase& p : index.TopPhrases(c.doc(2))) {
    EXPECT_GE(index.DocumentFrequency(p.hash), 2u);
  }
}

TEST(TfidfTest, TopPhrasesRespectFraction) {
  Corpus c;
  // 20 tokens, all distinct n-grams; top_fraction 0.1 over distinct
  // phrases, min 1.
  c.Add("a b c d e f g h i j k l m n o p q r s t");
  c.Add("a b c d e f g h i j k l m n o p q r s t");
  TfidfOptions opts;
  opts.max_ngram = 1;
  opts.top_fraction = 0.1;
  TfidfIndex index;
  index.Build(c, opts);
  std::vector<ScoredPhrase> top = index.TopPhrases(c.doc(0));
  EXPECT_EQ(top.size(), 2u);  // ceil(0.1 * 20)
}

TEST(TfidfTest, TopFractionAppliesAfterMinDfFilter) {
  // Doc 0 holds 20 distinct unigrams; only 4 of them also occur in doc 1
  // (df 2), the rest are df-1 and filtered by min_df = 2. The fraction
  // must apply to the 4 eligible phrases — ceil(0.5 * 4) = 2 — not to
  // the 20 pre-filter distinct phrases, which would keep all 4.
  Corpus c;
  c.Add("alpha beta gamma delta u1 u2 u3 u4 u5 u6 u7 u8 u9 u10 u11 u12 "
        "u13 u14 u15 u16");
  c.Add("alpha beta gamma delta");
  TfidfOptions opts;
  opts.max_ngram = 1;
  opts.min_df = 2;
  opts.top_fraction = 0.5;
  TfidfIndex index;
  index.Build(c, opts);
  EXPECT_EQ(index.TopPhrases(c.doc(0)).size(), 2u);
}

TEST(TfidfTest, MinPhrasesFloorStillAppliesAfterFilter) {
  Corpus c;
  c.Add("alpha beta gamma delta u1 u2 u3 u4 u5 u6 u7 u8 u9 u10 u11 u12");
  c.Add("alpha beta gamma delta");
  TfidfOptions opts;
  opts.max_ngram = 1;
  opts.min_df = 2;
  opts.top_fraction = 0.25;  // ceil(0.25 * 4) = 1, floored up to 3
  opts.min_phrases_per_doc = 3;
  TfidfIndex index;
  index.Build(c, opts);
  EXPECT_EQ(index.TopPhrases(c.doc(0)).size(), 3u);
}

TEST(TfidfTest, MinPhrasesPerDocGuaranteesOne) {
  Corpus c;
  c.Add("x y");
  c.Add("x y");
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  EXPECT_EQ(index.TopPhrases(c.doc(0)).size(), 1u);
}

TEST(TfidfTest, MinNgramExcludesUnigrams) {
  // Default min_ngram = 2: a single shared word is not an eligible top
  // phrase (it would percolate the coarse graph), but a shared bigram is.
  Corpus c;
  c.Add("alpha beta gamma");
  c.Add("alpha delta epsilon");  // shares only the unigram "alpha"
  c.Add("zeta beta gamma");      // shares the bigram "beta gamma" with doc 0
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  for (const ScoredPhrase& p : index.TopPhrases(c.doc(0))) {
    TokenId alpha = c.vocab().Find("alpha");
    EXPECT_NE(p.hash, HashNgram(&alpha, 1));
  }
}

TEST(TfidfTest, MinNgramClampedToMaxNgram) {
  // max_ngram = 1 (the Fig. 4 sweep's left end) keeps unigrams eligible
  // even though min_ngram defaults to 2.
  Corpus c;
  c.Add("common words here");
  c.Add("common words there");
  TfidfOptions opts;
  opts.max_ngram = 1;
  TfidfIndex index;
  index.Build(c, opts);
  EXPECT_FALSE(index.TopPhrases(c.doc(0)).empty());
}

TEST(TfidfTest, ScoresSortedDescending) {
  Corpus c = SmallCorpus();
  TfidfOptions opts;
  opts.top_fraction = 1.0;
  opts.min_df = 1;
  TfidfIndex index;
  index.Build(c, opts);
  std::vector<ScoredPhrase> top = index.TopPhrases(c.doc(0));
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(TfidfTest, MaxNgramLimitsPhraseLength) {
  Corpus c;
  c.Add("one two three four five six");
  c.Add("one two three four five six");
  TfidfOptions opts1;
  opts1.max_ngram = 1;
  TfidfIndex index1;
  index1.Build(c, opts1);
  TfidfOptions opts5;
  opts5.max_ngram = 5;
  TfidfIndex index5;
  index5.Build(c, opts5);
  EXPECT_LT(index1.num_phrases(), index5.num_phrases());
}

TEST(TfidfTest, ParallelBuildMatchesSerial) {
  // The parallel df build (one sorted run per thread, k-way merged) must
  // equal the serial one for every phrase the corpus actually contains —
  // same table size, same count per hash — because top-phrase selection
  // (and so the whole coarse output) reads exactly these numbers.
  Corpus c;
  for (int i = 0; i < 40; ++i) {
    c.Add("shared spam phrase number " + std::to_string(i % 7) +
          " with trailing tail " + std::to_string(i));
  }
  TfidfIndex serial;
  serial.Build(c, TfidfOptions{});
  TfidfIndex parallel;
  parallel.Build(c, TfidfOptions{}, /*num_threads=*/4);

  EXPECT_EQ(parallel.num_documents(), serial.num_documents());
  EXPECT_EQ(parallel.num_phrases(), serial.num_phrases());
  for (const Document& doc : c.docs()) {
    for (const NgramSpan& g : ExtractNgrams(doc, TfidfOptions{}.max_ngram)) {
      EXPECT_EQ(parallel.DocumentFrequency(g.hash),
                serial.DocumentFrequency(g.hash));
    }
  }
}

TEST(TfidfTest, ParallelBuildMatchesSerialTopPhrases) {
  Corpus c;
  for (int i = 0; i < 24; ++i) {
    c.Add("alpha beta gamma campaign " + std::to_string(i % 4) +
          " call today " + std::to_string(i % 4));
  }
  TfidfIndex serial;
  serial.Build(c, TfidfOptions{});
  TfidfIndex parallel;
  parallel.Build(c, TfidfOptions{}, /*num_threads=*/8);
  for (const Document& doc : c.docs()) {
    std::vector<ScoredPhrase> a = serial.TopPhrases(doc);
    std::vector<ScoredPhrase> b = parallel.TopPhrases(doc);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].hash, b[i].hash);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

TEST(TfidfTest, EmptyCorpus) {
  Corpus c;
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.num_phrases(), 0u);
}

TEST(TfidfTest, EmptyDocumentYieldsNoPhrases) {
  Corpus c;
  c.Add("");
  c.Add("words here");
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  EXPECT_TRUE(index.TopPhrases(c.doc(0)).empty());
}

// ---------------------------------------------------------------------
// Oracles: the sorted-run df table and the sort-based TopPhrases against
// straightforward hash-map references.

using DfMap = std::unordered_map<PhraseHash, uint32_t>;

// Per-document-deduplicated document frequencies of documents
// [begin, corpus.size()), one hash map.
DfMap NaiveDf(const Corpus& corpus, size_t max_ngram, size_t begin = 0) {
  DfMap df;
  std::unordered_set<PhraseHash> seen;
  for (size_t d = begin; d < corpus.size(); ++d) {
    seen.clear();
    for (const NgramSpan& g : ExtractNgrams(corpus.doc(d), max_ngram)) {
      seen.insert(g.hash);
    }
    for (PhraseHash hash : seen) ++df[hash];
  }
  return df;
}

// The map-based TopPhrases the sort-based one replaced, scoring against
// the naive df map.
std::vector<ScoredPhrase> ReferenceTopPhrases(const DfMap& df_map,
                                              size_t num_documents,
                                              const TfidfOptions& options,
                                              const Document& doc) {
  const size_t min_n = std::min(options.min_ngram, options.max_ngram);
  std::unordered_map<PhraseHash, uint32_t> tf;
  for (const NgramSpan& g : ExtractNgrams(doc, options.max_ngram)) {
    if (g.n < min_n) continue;
    ++tf[g.hash];
  }
  std::vector<ScoredPhrase> scored;
  for (const auto& [hash, count] : tf) {
    auto it = df_map.find(hash);
    const size_t df = it == df_map.end() ? 0 : it->second;
    if (df < options.min_df) continue;
    double score = 0.0;
    if (df != 0 && num_documents != 0) {
      score = static_cast<double>(count) *
              std::log(static_cast<double>(num_documents) /
                       static_cast<double>(df));
    }
    scored.push_back(ScoredPhrase{hash, score});
  }
  size_t keep = static_cast<size_t>(
      std::ceil(options.top_fraction * static_cast<double>(scored.size())));
  keep = std::max(keep, options.min_phrases_per_doc);
  keep = std::min(keep, scored.size());
  std::sort(scored.begin(), scored.end(),
            [](const ScoredPhrase& a, const ScoredPhrase& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.hash < b.hash;
            });
  scored.resize(keep);
  return scored;
}

// Random documents over a small vocabulary (so phrases repeat within and
// across documents), with some empty ones mixed in.
Corpus RandomCorpus(uint64_t seed, size_t num_docs, size_t max_len) {
  Rng rng(seed);
  Corpus corpus;
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text;
    const int64_t len = rng.NextBernoulli(0.1)
                            ? 0
                            : rng.NextInt(1, static_cast<int64_t>(max_len));
    for (int64_t t = 0; t < len; ++t) {
      text += "w" + std::to_string(rng.NextBounded(12)) + " ";
    }
    corpus.Add(text);
  }
  return corpus;
}

void ExpectDfMatchesNaive(const Corpus& corpus, size_t max_ngram) {
  const DfMap naive = NaiveDf(corpus, max_ngram);
  TfidfOptions options;
  options.max_ngram = max_ngram;
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " max_ngram=" + std::to_string(max_ngram));
    TfidfIndex index;
    index.Build(corpus, options, threads);
    EXPECT_EQ(index.num_documents(), corpus.size());
    ASSERT_EQ(index.num_phrases(), naive.size());
    EXPECT_TRUE(index.ValidateInvariants().ok());
    for (const auto& [hash, df] : naive) {
      ASSERT_EQ(index.DocumentFrequency(hash), df);
      // Neighbours of a stored key read 0 unless they are stored too.
      for (PhraseHash probe : {hash - 1, hash + 1}) {
        auto it = naive.find(probe);
        EXPECT_EQ(index.DocumentFrequency(probe),
                  it == naive.end() ? 0u : it->second);
      }
    }
    for (PhraseHash probe : {PhraseHash{0}, ~PhraseHash{0}}) {
      auto it = naive.find(probe);
      EXPECT_EQ(index.DocumentFrequency(probe),
                it == naive.end() ? 0u : it->second);
    }
  }
}

TEST(TfidfOracleTest, DfMatchesNaiveMapAtEveryThreadCount) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Corpus corpus = RandomCorpus(seed, 60, 14);
    for (size_t max_ngram : {1u, 3u, 5u}) {
      ExpectDfMatchesNaive(corpus, max_ngram);
    }
  }
}

TEST(TfidfOracleTest, DfDegenerateCorpora) {
  Corpus one;
  one.Add("a lone document with a lone phrase");
  ExpectDfMatchesNaive(one, 5);

  Corpus empties;
  empties.Add("");
  empties.Add("");
  empties.Add("only one document has words");
  empties.Add("");
  ExpectDfMatchesNaive(empties, 5);

  // max_ngram longer than every document.
  ExpectDfMatchesNaive(RandomCorpus(9, 20, 4), 12);

  Corpus none;
  none.Add("");
  TfidfIndex index;
  index.Build(none, TfidfOptions{}, 4);
  EXPECT_EQ(index.num_phrases(), 0u);
  EXPECT_EQ(index.DocumentFrequency(0), 0u);
  EXPECT_EQ(index.DocumentFrequency(~PhraseHash{0}), 0u);
  EXPECT_TRUE(index.TopPhrases(none.doc(0)).empty());
}

TEST(TfidfOracleTest, DefaultIndexReadsZero) {
  const TfidfIndex index;
  EXPECT_EQ(index.num_phrases(), 0u);
  EXPECT_EQ(index.DocumentFrequency(0), 0u);
  EXPECT_EQ(index.DocumentFrequency(~PhraseHash{0}), 0u);
}

TEST(TfidfOracleTest, SubrangeRunsMatchNaiveMapAtEveryThreadCount) {
  // A document range that starts mid-corpus (the incremental delta's
  // shape), split across 1..8 chunks and k-way merged.
  const Corpus corpus = RandomCorpus(4, 40, 10);
  const DfMap naive = NaiveDf(corpus, 4, /*begin=*/5);
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const DfRun run =
        CountDocumentFrequencies(corpus, 5, corpus.size(), 4, threads);
    ASSERT_EQ(run.keys.size(), naive.size());
    ASSERT_EQ(run.counts.size(), naive.size());
    EXPECT_EQ(run.keys.capacity(), run.keys.size());
    for (size_t i = 0; i < run.keys.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(run.keys[i - 1], run.keys[i]);
      }
      EXPECT_EQ(run.counts[i], naive.at(run.keys[i]));
    }
  }
}

void ExpectBitIdentical(const std::vector<ScoredPhrase>& want,
                        const std::vector<ScoredPhrase>& got, DocId doc) {
  ASSERT_EQ(want.size(), got.size()) << "doc " << doc;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].hash, got[i].hash) << "doc " << doc << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want[i].score),
              std::bit_cast<uint64_t>(got[i].score))
        << "doc " << doc << " rank " << i;
  }
}

TEST(TfidfOracleTest, TopPhrasesMatchMapReferenceBitForBit) {
  TraffickingGenOptions gen;
  gen.num_benign = 120;
  gen.num_spam_clusters = 3;
  gen.spam_cluster_size_min = 10;
  gen.spam_cluster_size_max = 25;
  gen.num_ht_clusters = 6;
  gen.ht_cluster_size_min = 4;
  gen.ht_cluster_size_max = 10;
  const Corpus corpus = TraffickingGenerator(gen).Generate(11).corpus;
  ASSERT_GT(corpus.size(), 100u);

  TfidfOptions options;
  TfidfOptions all = options;
  all.top_fraction = 1.0;
  all.min_df = 1;
  for (const TfidfOptions& opts : {options, all}) {
    const DfMap naive = NaiveDf(corpus, opts.max_ngram);
    TfidfIndex built;
    built.Build(corpus, opts, 3);
    SnapshotDfTable table;
    DfRun delta = CountDocumentFrequencies(corpus, 0, corpus.size() / 2,
                                           opts.max_ngram);
    table.ApplyBatch(&delta, corpus.size() / 2);
    delta = CountDocumentFrequencies(corpus, corpus.size() / 2,
                                     corpus.size(), opts.max_ngram);
    table.ApplyBatch(&delta, corpus.size() - corpus.size() / 2);
    TfidfIndex snapped;
    snapped.BuildFromSnapshot(table.Snapshot(), opts);
    for (const Document& doc : corpus.docs()) {
      const std::vector<ScoredPhrase> want =
          ReferenceTopPhrases(naive, corpus.size(), opts, doc);
      ExpectBitIdentical(want, built.TopPhrases(doc), doc.id);
      ExpectBitIdentical(want, snapped.TopPhrases(doc), doc.id);
    }
  }
}

}  // namespace
}  // namespace infoshield
