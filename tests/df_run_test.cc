// DfRun: AddDfRun must be exactly additive (the incremental oracle's
// foundation) — the sum of the runs of consecutive document ranges is
// the run of their union, key for key — and AuditDfRun must report a
// corrupt run.

#include "tfidf/df_run.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/trafficking_gen.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/tfidf_index.h"
#include "util/audit.h"

namespace infoshield {
namespace {

constexpr PhraseHash kMaxKey = std::numeric_limits<PhraseHash>::max();

Corpus GeneratedCorpus(uint64_t seed) {
  TraffickingGenOptions o;
  o.num_benign = 40;
  o.num_spam_clusters = 2;
  o.spam_cluster_size_min = 5;
  o.spam_cluster_size_max = 9;
  o.num_ht_clusters = 3;
  o.ht_cluster_size_min = 3;
  o.ht_cluster_size_max = 6;
  return TraffickingGenerator(o).Generate(seed).corpus;
}

DfRun MakeRun(std::vector<PhraseHash> keys, std::vector<uint32_t> counts) {
  DfRun run;
  run.keys = std::move(keys);
  run.counts = std::move(counts);
  return run;
}

void ExpectSameRun(const DfRun& want, const DfRun& got) {
  EXPECT_EQ(want.keys, got.keys);
  EXPECT_EQ(want.counts, got.counts);
}

Status AuditRun(const DfRun& run, size_t min_count, size_t max_count) {
  audit::Auditor a("DfRun");
  AuditDfRun(run, min_count, max_count, &a);
  return a.Finish();
}

TEST(DfRunTest, AddMatchesOneCountAtEverySplit) {
  const Corpus corpus = GeneratedCorpus(3);
  const size_t n = corpus.size();
  ASSERT_GT(n, 4u);
  const DfRun whole = CountDocumentFrequencies(corpus, 0, n, 5);
  ASSERT_TRUE(AuditRun(whole, 1, n).ok());
  for (size_t k : {size_t{0}, size_t{1}, n / 2, n}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    DfRun sum = CountDocumentFrequencies(corpus, 0, k, 5);
    AddDfRun(CountDocumentFrequencies(corpus, k, n, 5), &sum);
    ExpectSameRun(whole, sum);
  }
}

TEST(DfRunTest, FoldMatchesOneCount) {
  // Many uneven batches, counted at different thread counts, add up to
  // the one count over the whole corpus.
  const Corpus corpus = GeneratedCorpus(5);
  const size_t n = corpus.size();
  DfRun folded;
  size_t begin = 0;
  for (size_t step = 1; begin < n; ++step) {
    const size_t end = std::min(n, begin + step * 3);
    AddDfRun(CountDocumentFrequencies(corpus, begin, end, 5, step % 4),
             &folded);
    EXPECT_TRUE(AuditRun(folded, 1, end).ok());
    begin = end;
  }
  ExpectSameRun(CountDocumentFrequencies(corpus, 0, n, 5, 3), folded);
}

TEST(DfRunTest, AddEmptyRuns) {
  DfRun total;
  AddDfRun(DfRun(), &total);
  EXPECT_TRUE(total.keys.empty());
  EXPECT_TRUE(total.counts.empty());
  EXPECT_TRUE(AuditRun(total, 1, 0).ok());

  const DfRun some = MakeRun({3, 9}, {1, 2});
  AddDfRun(some, &total);
  ExpectSameRun(some, total);
  AddDfRun(DfRun(), &total);
  ExpectSameRun(some, total);
}

TEST(DfRunTest, AddKeepsKeysAcrossTheRange) {
  // Keys at both ends of the hash space and at every top-six-bit
  // boundary, interleaved between the two runs.
  DfRun even;
  DfRun odd;
  DfRun want;
  for (PhraseHash top = 0; top < 64; ++top) {
    DfRun& run = top % 2 == 0 ? even : odd;
    const PhraseHash lo = top << 58;
    const PhraseHash hi = lo | ((PhraseHash{1} << 58) - 1);
    run.keys.insert(run.keys.end(), {lo, hi});
    run.counts.insert(run.counts.end(), {1, 2});
    want.keys.insert(want.keys.end(), {lo, hi});
    want.counts.insert(want.counts.end(), {1, 2});
  }
  ASSERT_EQ(want.keys.front(), 0u);
  ASSERT_EQ(want.keys.back(), kMaxKey);
  DfRun sum = even;
  AddDfRun(odd, &sum);
  ExpectSameRun(want, sum);
  sum = odd;
  AddDfRun(even, &sum);
  ExpectSameRun(want, sum);
}

TEST(DfRunTest, AddSumsOverlappingAndKeepsDisjointKeys) {
  DfRun total = MakeRun({0, 5, 7, kMaxKey}, {1, 2, 3, 4});
  AddDfRun(MakeRun({0, 6, 7, kMaxKey}, {10, 20, 30, 40}), &total);
  ExpectSameRun(MakeRun({0, 5, 6, 7, kMaxKey}, {11, 2, 20, 33, 44}),
                total);

  // Fully disjoint, one run entirely below the other.
  DfRun low = MakeRun({1, 2}, {1, 1});
  AddDfRun(MakeRun({kMaxKey - 1, kMaxKey}, {2, 2}), &low);
  ExpectSameRun(MakeRun({1, 2, kMaxKey - 1, kMaxKey}, {1, 1, 2, 2}), low);

  // Identical key sets double every count.
  DfRun same = MakeRun({4, 8}, {3, 5});
  AddDfRun(same, &same);
  ExpectSameRun(MakeRun({4, 8}, {6, 10}), same);
}

TEST(DfRunTest, IndexFromFoldedRunMatchesBuild) {
  // An index built from a folded every-phrase run equals Build over the
  // same documents: the run build drops what Build's min_df count never
  // kept, and every df and top-phrase list agrees.
  const Corpus corpus = GeneratedCorpus(7);
  const size_t n = corpus.size();
  const TfidfOptions options;
  DfRun folded = CountDocumentFrequencies(corpus, 0, n / 3, 5);
  AddDfRun(CountDocumentFrequencies(corpus, n / 3, n, 5), &folded);
  const size_t all_phrases = folded.keys.size();

  TfidfIndex built;
  built.Build(corpus, options);
  TfidfIndex from_run;
  from_run.Build(std::move(folded), n, options);
  EXPECT_TRUE(from_run.ValidateInvariants().ok());
  EXPECT_EQ(from_run.num_documents(), built.num_documents());
  EXPECT_EQ(from_run.num_phrases(), built.num_phrases());
  EXPECT_LT(from_run.num_phrases(), all_phrases);
  for (const Document& doc : corpus.docs()) {
    for (const NgramSpan& g : ExtractNgrams(doc, options.max_ngram)) {
      ASSERT_EQ(from_run.DocumentFrequency(g.hash),
                built.DocumentFrequency(g.hash));
    }
    const std::vector<ScoredPhrase> a = built.TopPhrases(doc);
    const std::vector<ScoredPhrase> b = from_run.TopPhrases(doc);
    ASSERT_EQ(a.size(), b.size()) << "doc " << doc.id;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].hash, b[i].hash) << "doc " << doc.id << " rank " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "doc " << doc.id << " rank " << i;
    }
  }
}

TEST(DfRunTest, IndexOwnsItsCopyAcrossLaterAdds) {
  // The incremental engine builds each batch's index from a copy of its
  // run; adding a later batch into the run must not move that index.
  const Corpus corpus = GeneratedCorpus(9);
  const size_t n = corpus.size();
  TfidfOptions options;
  options.min_df = 1;
  DfRun run = CountDocumentFrequencies(corpus, 0, n / 2, 5);
  TfidfIndex index;
  index.Build(run, n / 2, options);
  std::vector<std::pair<PhraseHash, size_t>> before;
  for (const NgramSpan& g : ExtractNgrams(corpus.doc(0), 5)) {
    before.emplace_back(g.hash, index.DocumentFrequency(g.hash));
  }
  const size_t phrases = index.num_phrases();

  AddDfRun(CountDocumentFrequencies(corpus, n / 2, n, 5), &run);
  EXPECT_GT(run.keys.size(), phrases);
  EXPECT_EQ(index.num_phrases(), phrases);
  EXPECT_EQ(index.num_documents(), n / 2);
  for (const auto& [hash, df] : before) {
    EXPECT_EQ(index.DocumentFrequency(hash), df);
  }
}

TEST(DfRunTest, AuditReportsCorruptRuns) {
  EXPECT_TRUE(AuditRun(MakeRun({1, 2, kMaxKey}, {1, 3, 2}), 1, 3).ok());
  // Keys out of order, or repeated.
  EXPECT_FALSE(AuditRun(MakeRun({2, 1}, {1, 1}), 1, 3).ok());
  EXPECT_FALSE(AuditRun(MakeRun({4, 4}, {1, 1}), 1, 3).ok());
  // A count of 0, or above the document count.
  EXPECT_FALSE(AuditRun(MakeRun({1, 2}, {0, 1}), 1, 3).ok());
  EXPECT_FALSE(AuditRun(MakeRun({1, 2}, {1, 4}), 1, 3).ok());
  // Arrays that do not line up.
  EXPECT_FALSE(AuditRun(MakeRun({1, 2}, {1}), 1, 3).ok());
  // Every violation is reported, not just the first.
  audit::Auditor a("DfRun");
  AuditDfRun(MakeRun({5, 4, 4}, {0, 9, 1}), 1, 3, &a);
  EXPECT_EQ(a.num_failures(), 4u);
}

}  // namespace
}  // namespace infoshield
