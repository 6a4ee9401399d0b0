// MinHash/LSH backend math and contract tests (DESIGN.md §16): the
// Jaccard-estimate concentration the banding threshold rests on,
// parameter validation, banding structure, the sorted bucket run
// against brute-force and naive-count references, the full kMinhashLsh
// coarse path against the doc-major edge replay kept in
// coarse_reference.h (with and without a degree cap), thread-count
// determinism,
// and the empty/degenerate corpora the backend must not trip over.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarse_clustering.h"
#include "coarse_reference.h"
#include "datagen/neardup_gen.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {
namespace {

std::vector<TokenId> TokenRange(uint32_t begin, uint32_t end) {
  std::vector<TokenId> tokens;
  for (uint32_t t = begin; t < end; ++t) {
    tokens.push_back(static_cast<TokenId>(t));
  }
  return tokens;
}

// Exact Jaccard of the two documents' shingle sets.
double ExactJaccard(const std::vector<TokenId>& a,
                    const std::vector<TokenId>& b, size_t shingle_k) {
  const std::vector<uint64_t> sa = ShingleHashes(a, shingle_k);
  const std::vector<uint64_t> sb = ShingleHashes(b, shingle_k);
  const std::unordered_set<uint64_t> set_a(sa.begin(), sa.end());
  const std::unordered_set<uint64_t> set_b(sb.begin(), sb.end());
  size_t inter = 0;
  for (uint64_t h : set_b) inter += set_a.count(h);
  const size_t uni = set_a.size() + set_b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

TEST(MinHashTest, JaccardEstimateConverges) {
  // Each signature component agrees with probability J (the MinHash
  // property), so the estimator is a mean of num_hashes Bernoulli(J)
  // draws. Hoeffding: P(|est - J| >= t) <= 2 exp(-2 t^2 num_hashes);
  // with num_hashes = 256 and delta = 1e-9 the tolerance is
  // t = sqrt(ln(2/delta) / (2 * 256)) ~= 0.2 — this test flakes with
  // probability < 1e-9 per pair if the implementation is correct, and
  // deterministically (fixed seed) not at all.
  MinHashParams params;
  params.num_hashes = 256;
  params.shingle_k = 1;
  const MinHashFamily family(params);
  const double tolerance =
      std::sqrt(std::log(2.0 / 1e-9) /
                (2.0 * static_cast<double>(params.num_hashes)));

  // Overlap fractions from disjoint to identical: A = [0, 100),
  // B = [cut, 100 + cut) share 100 - cut unigram shingles.
  for (uint32_t cut : {0u, 25u, 50u, 75u, 100u}) {
    const std::vector<TokenId> a = TokenRange(0, 100);
    const std::vector<TokenId> b = TokenRange(cut, 100 + cut);
    const double exact = ExactJaccard(a, b, params.shingle_k);
    const double estimate =
        EstimateJaccard(family.Signature(a), family.Signature(b));
    EXPECT_NEAR(estimate, exact, tolerance)
        << "cut=" << cut << " exact J=" << exact;
  }
}

TEST(MinHashTest, IdenticalDocumentsEstimateOne) {
  const MinHashFamily family(MinHashParams{});
  const std::vector<TokenId> doc = TokenRange(5, 40);
  EXPECT_EQ(family.Signature(doc), family.Signature(doc));
  EXPECT_DOUBLE_EQ(
      EstimateJaccard(family.Signature(doc), family.Signature(doc)), 1.0);
}

TEST(MinHashTest, ShortDocumentFallsBackToWholeDocShingle) {
  // Documents shorter than shingle_k sketch their whole token sequence,
  // so exact duplicates keep identical signatures at any length.
  MinHashParams params;
  params.shingle_k = 5;
  const MinHashFamily family(params);
  const std::vector<TokenId> tiny = {1, 2};
  EXPECT_EQ(ShingleHashes(tiny, params.shingle_k).size(), 1u);
  EXPECT_EQ(family.Signature(tiny), family.Signature(tiny));
  EXPECT_TRUE(family.Signature({}).empty());
}

TEST(MinHashTest, ValidateRejectsDegenerateParams) {
  MinHashParams zero_hashes;
  zero_hashes.num_hashes = 0;
  EXPECT_EQ(zero_hashes.Validate().code(), StatusCode::kInvalidArgument);

  MinHashParams zero_shingle;
  zero_shingle.shingle_k = 0;
  EXPECT_EQ(zero_shingle.Validate().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(MinHashParams{}.Validate().ok());
}

TEST(LshIndexTest, ValidateRejectsBadBanding) {
  const MinHashParams minhash;  // num_hashes = 128

  LshParams zero_bands;
  zero_bands.bands = 0;
  EXPECT_EQ(zero_bands.Validate(minhash).code(),
            StatusCode::kInvalidArgument);

  LshParams zero_rows;
  zero_rows.rows = 0;
  EXPECT_EQ(zero_rows.Validate(minhash).code(), StatusCode::kInvalidArgument);

  LshParams mismatched;
  mismatched.bands = 10;
  mismatched.rows = 10;  // 100 != 128
  const Status status = mismatched.Validate(minhash);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("128"), std::string::npos)
      << "message should name the mismatched sizes: " << status.ToString();

  EXPECT_TRUE(LshParams{}.Validate(minhash).ok());
}

TEST(LshIndexTest, BandKeysPartitionTheSignature) {
  MinHashParams params;
  params.num_hashes = 8;
  const MinHashFamily family(params);
  LshParams banding;
  banding.bands = 4;
  banding.rows = 2;

  const MinHashSignature sig = family.Signature(TokenRange(0, 30));
  const std::vector<uint64_t> keys = BandKeys(sig, banding);
  ASSERT_EQ(keys.size(), banding.bands);

  // Changing a component of band 0 changes only band 0's key.
  MinHashSignature perturbed = sig;
  perturbed[1] ^= 1;
  const std::vector<uint64_t> keys2 = BandKeys(perturbed, banding);
  EXPECT_NE(keys2[0], keys[0]);
  for (size_t band = 1; band < banding.bands; ++band) {
    EXPECT_EQ(keys2[band], keys[band]) << "band " << band;
  }
  EXPECT_TRUE(BandKeys(MinHashSignature{}, banding).empty());
}

TEST(LshIndexTest, QueryFindsCoBucketedDocuments) {
  MinHashParams params;
  params.num_hashes = 16;
  const MinHashFamily family(params);
  LshParams banding;
  banding.bands = 4;
  banding.rows = 4;

  const std::vector<TokenId> dup = TokenRange(0, 20);
  const std::vector<TokenId> other = TokenRange(100, 140);
  const std::vector<MinHashSignature> signatures = {
      family.Signature(dup), family.Signature(dup), family.Signature(other)};

  LshIndex index(params, banding);
  index.Build(signatures, /*num_threads=*/1);
  const std::vector<DocId> hits = index.Query(family.Signature(dup));
  EXPECT_EQ(hits, (std::vector<DocId>{0, 1}));

  const LshIndex::Stats stats = index.ComputeStats();
  EXPECT_EQ(stats.max_bucket, 2u);
  // Docs 0 and 1 co-bucket in all 4 bands: 4 * C(2,2) pairs.
  EXPECT_EQ(stats.candidate_pairs, 4u);
}

// --- the sorted bucket run --------------------------------------------

const size_t kThreadCounts[] = {1, 2, 3, 4, 8};

// Near-duplicate families plus the degenerate documents the run must
// carry: an exact duplicate, an empty document, and a one-token one.
Corpus BucketCorpus() {
  NearDupGenOptions options;
  options.num_families = 6;
  options.family_size_min = 2;
  options.family_size_max = 6;
  options.template_tokens = 12;
  options.num_noise = 10;
  options.vocab_size = 400;
  Corpus corpus = GenerateNearDupFamilies(options, /*seed=*/5).corpus;
  const std::string duplicate = corpus.docs()[0].raw;
  corpus.Add(duplicate);
  corpus.Add("");
  corpus.Add("lonely");
  return corpus;
}

std::vector<MinHashSignature> Signatures(const Corpus& corpus,
                                         const MinHashParams& params) {
  const MinHashFamily family(params);
  std::vector<MinHashSignature> signatures;
  for (const Document& doc : corpus.docs()) {
    signatures.push_back(family.Signature(doc.tokens));
  }
  return signatures;
}

// Every bucket, keyed by band key, members in document order with
// repeats: what the run must hold, bucket for bucket in key order.
std::map<uint64_t, std::vector<DocId>> NaiveBuckets(
    const std::vector<std::vector<uint64_t>>& band_keys) {
  std::map<uint64_t, std::vector<DocId>> buckets;
  for (size_t d = 0; d < band_keys.size(); ++d) {
    for (const uint64_t key : band_keys[d]) {
      buckets[key].push_back(static_cast<DocId>(d));
    }
  }
  return buckets;
}

void ExpectRunHolds(const LshIndex& index,
                    const std::map<uint64_t, std::vector<DocId>>& expected,
                    size_t threads) {
  ASSERT_EQ(index.num_buckets(), expected.size()) << "threads=" << threads;
  size_t i = 0;
  for (const auto& bucket : expected) {
    const std::span<const DocId> members = index.bucket(i);
    EXPECT_EQ(std::vector<DocId>(members.begin(), members.end()),
              bucket.second)
        << "bucket " << i << " threads=" << threads;
    ++i;
  }
}

TEST(LshIndexTest, RunHoldsEveryBucketInKeyThenDocOrder) {
  const Corpus corpus = BucketCorpus();
  const MinHashParams params;
  const LshParams banding;
  const std::vector<MinHashSignature> signatures =
      Signatures(corpus, params);
  std::vector<std::vector<uint64_t>> band_keys;
  for (const MinHashSignature& sig : signatures) {
    band_keys.push_back(BandKeys(sig, banding));
  }
  const auto expected = NaiveBuckets(band_keys);
  for (size_t threads : kThreadCounts) {
    LshIndex from_signatures(params, banding);
    from_signatures.Build(signatures, threads);
    ExpectRunHolds(from_signatures, expected, threads);
    LshIndex from_keys(params, banding);
    from_keys.BuildFromBandKeys(band_keys, threads);
    ExpectRunHolds(from_keys, expected, threads);
  }
}

TEST(LshIndexTest, BuildFromBandKeysKeepsRepeatedKeys) {
  // A document holding a key twice is listed twice, consecutively.
  const std::vector<std::vector<uint64_t>> band_keys = {
      {5, 5, 7}, {5}, {}, {7, 5}, {9}};
  for (size_t threads : kThreadCounts) {
    LshIndex index(MinHashParams{}, LshParams{});
    index.BuildFromBandKeys(band_keys, threads);
    ExpectRunHolds(index, NaiveBuckets(band_keys), threads);
    const LshIndex::Stats stats = index.ComputeStats();
    EXPECT_EQ(stats.num_buckets, 3u);
    EXPECT_EQ(stats.max_bucket, 4u);           // key 5: docs 0, 0, 1, 3
    EXPECT_EQ(stats.candidate_pairs, 6u + 1u);  // C(4,2) + C(2,2) + 0
  }
}

TEST(LshIndexTest, ComputeStatsMatchesNaiveCount) {
  const Corpus corpus = BucketCorpus();
  const MinHashParams params;
  const LshParams banding;
  const std::vector<MinHashSignature> signatures =
      Signatures(corpus, params);
  std::map<uint64_t, size_t> counts;
  for (const MinHashSignature& sig : signatures) {
    for (const uint64_t key : BandKeys(sig, banding)) ++counts[key];
  }
  LshIndex::Stats expected;
  expected.num_buckets = counts.size();
  for (const auto& [key, count] : counts) {
    expected.max_bucket = std::max(expected.max_bucket, count);
    expected.candidate_pairs += count * (count - 1) / 2;
  }
  ASSERT_GT(expected.max_bucket, 2u) << "corpus should have families";
  for (size_t threads : kThreadCounts) {
    LshIndex index(params, banding);
    index.Build(signatures, threads);
    const LshIndex::Stats stats = index.ComputeStats();
    EXPECT_EQ(stats.num_buckets, expected.num_buckets) << threads;
    EXPECT_EQ(stats.max_bucket, expected.max_bucket) << threads;
    EXPECT_EQ(stats.candidate_pairs, expected.candidate_pairs) << threads;
  }
}

TEST(LshIndexTest, QueryMatchesBruteForceScan) {
  const Corpus corpus = BucketCorpus();
  const MinHashParams params;
  const LshParams banding;
  const MinHashFamily family(params);
  const std::vector<MinHashSignature> signatures =
      Signatures(corpus, params);
  std::vector<MinHashSignature> probes = signatures;
  probes.push_back(family.Signature(TokenRange(100000, 100030)));  // unseen
  probes.push_back(MinHashSignature{});                             // empty

  for (size_t threads : kThreadCounts) {
    LshIndex index(params, banding);
    index.Build(signatures, threads);
    for (size_t p = 0; p < probes.size(); ++p) {
      const std::vector<uint64_t> probe_keys = BandKeys(probes[p], banding);
      std::vector<DocId> expected;
      for (size_t d = 0; d < signatures.size(); ++d) {
        for (const uint64_t key : BandKeys(signatures[d], banding)) {
          if (std::find(probe_keys.begin(), probe_keys.end(), key) !=
              probe_keys.end()) {
            expected.push_back(static_cast<DocId>(d));
            break;
          }
        }
      }
      EXPECT_EQ(index.Query(probes[p]), expected)
          << "probe " << p << " threads=" << threads;
    }
  }
}

TEST(LshIndexTest, EmptyAndTinyInputs) {
  const MinHashParams params;
  const LshParams banding;
  const MinHashFamily family(params);
  for (size_t threads : kThreadCounts) {
    LshIndex none(params, banding);
    none.Build({}, threads);
    EXPECT_EQ(none.num_buckets(), 0u);
    EXPECT_EQ(none.ComputeStats().candidate_pairs, 0u);
    EXPECT_TRUE(none.Query(family.Signature(TokenRange(0, 10))).empty());

    // Only empty documents: nothing to bucket.
    LshIndex blank(params, banding);
    blank.Build({MinHashSignature{}, MinHashSignature{}}, threads);
    EXPECT_EQ(blank.ComputeStats().num_buckets, 0u);

    // One document: one bucket per band, each a singleton.
    LshIndex one(params, banding);
    one.Build({family.Signature(TokenRange(0, 10))}, threads);
    const LshIndex::Stats stats = one.ComputeStats();
    EXPECT_EQ(stats.num_buckets, banding.bands);
    EXPECT_EQ(stats.max_bucket, 1u);
    EXPECT_EQ(stats.candidate_pairs, 0u);
    EXPECT_EQ(one.Query(family.Signature(TokenRange(0, 10))),
              (std::vector<DocId>{0}));
  }
}

// --- full kMinhashLsh coarse path ------------------------------------

Corpus DuplicateFamilyCorpus() {
  Corpus corpus;
  corpus.Add("red fox jumps over the lazy dog tonight");
  corpus.Add("call me now for the best massage in town");
  corpus.Add("red fox jumps over the lazy dog tonight");
  corpus.Add("totally unrelated benign advertisement text here");
  corpus.Add("call me now for the best massage in town");
  corpus.Add("red fox jumps over the lazy dog tonight");
  return corpus;
}

CoarseResult RunLsh(const Corpus& corpus, size_t num_threads) {
  CoarseOptions options;
  options.backend = CoarseBackend::kMinhashLsh;
  options.num_threads = num_threads;
  return CoarseClustering(options).Run(corpus);
}

TEST(LshCoarseTest, ExactDuplicatesCluster) {
  const CoarseResult result = RunLsh(DuplicateFamilyCorpus(), 1);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0], (std::vector<DocId>{0, 2, 5}));
  EXPECT_EQ(result.clusters[1], (std::vector<DocId>{1, 4}));
  EXPECT_EQ(result.singletons, (std::vector<DocId>{3}));
}

TEST(LshCoarseTest, DeterministicAcrossThreadCounts) {
  const Corpus corpus = DuplicateFamilyCorpus();
  const CoarseResult reference = RunLsh(corpus, 1);
  for (size_t threads : {2u, 4u, 8u}) {
    const CoarseResult run = RunLsh(corpus, threads);
    EXPECT_EQ(run.clusters, reference.clusters) << "threads=" << threads;
    EXPECT_EQ(run.singletons, reference.singletons) << "threads=" << threads;
    EXPECT_EQ(run.doc_top_phrases, reference.doc_top_phrases)
        << "threads=" << threads;
    EXPECT_EQ(run.num_edges, reference.num_edges) << "threads=" << threads;
  }
}

TEST(LshCoarseTest, EmptyAndSingleDocCorpora) {
  const Corpus empty;
  const CoarseResult none = RunLsh(empty, 4);
  EXPECT_TRUE(none.clusters.empty());
  EXPECT_TRUE(none.singletons.empty());
  EXPECT_EQ(none.num_edges, 0u);

  Corpus one;
  one.Add("a single lonely document");
  const CoarseResult single = RunLsh(one, 4);
  EXPECT_TRUE(single.clusters.empty());
  EXPECT_EQ(single.singletons, (std::vector<DocId>{0}));
}

void ExpectMatchesReplay(const Corpus& corpus, const std::string& label) {
  for (size_t cap : {0u, 1u, 3u}) {
    CoarseOptions options;
    options.backend = CoarseBackend::kMinhashLsh;
    options.max_phrase_degree = cap;
    const CoarseResult reference = reference::RunSerial(corpus, options);
    for (size_t threads : kThreadCounts) {
      options.num_threads = threads;
      const CoarseResult run = CoarseClustering(options).Run(corpus);
      EXPECT_EQ(run.clusters, reference.clusters)
          << label << " cap=" << cap << " threads=" << threads;
      EXPECT_EQ(run.singletons, reference.singletons)
          << label << " cap=" << cap << " threads=" << threads;
      EXPECT_EQ(run.doc_top_phrases, reference.doc_top_phrases)
          << label << " cap=" << cap << " threads=" << threads;
      EXPECT_EQ(run.num_edges, reference.num_edges)
          << label << " cap=" << cap << " threads=" << threads;
    }
  }
}

TEST(LshCoarseTest, BucketUnionsMatchCanonicalReplay) {
  ExpectMatchesReplay(BucketCorpus(), "families");
  ExpectMatchesReplay(DuplicateFamilyCorpus(), "duplicates");
}

TEST(LshCoarseTest, DegreeCapSplitsLargeBuckets) {
  // Six exact duplicates share every bucket. Capped at 3, only the
  // first three documents of each bucket join; the rest stay apart.
  Corpus corpus;
  for (int i = 0; i < 6; ++i) corpus.Add("the same ad posted six times");
  CoarseOptions options;
  options.backend = CoarseBackend::kMinhashLsh;
  options.max_phrase_degree = 3;
  const CoarseResult result = CoarseClustering(options).Run(corpus);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0], (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(result.singletons, (std::vector<DocId>{3, 4, 5}));
}

TEST(LshCoarseTest, DegenerateCorporaMatchCanonicalReplay) {
  Corpus one;
  one.Add("a single lonely document");
  ExpectMatchesReplay(one, "one doc");

  // Fewer documents than threads, with an empty document between two
  // duplicates.
  Corpus few;
  few.Add("short duplicate text");
  few.Add("");
  few.Add("short duplicate text");
  ExpectMatchesReplay(few, "few docs");

  Corpus blank;
  blank.Add("");
  blank.Add("");
  ExpectMatchesReplay(blank, "empty docs");
}

TEST(LshCoarseTest, StatsReportBucketsAndPairs) {
  const CoarseResult result = RunLsh(DuplicateFamilyCorpus(), 1);
  EXPECT_GT(result.stats.lsh_buckets, 0u);
  // The triple-duplicate family co-buckets in every band.
  EXPECT_EQ(result.stats.lsh_max_bucket, 3u);
  EXPECT_GT(result.stats.lsh_candidate_pairs, 0u);
  EXPECT_GT(result.num_edges, 0u);
  EXPECT_EQ(result.stats.index_seconds, 0.0);
  EXPECT_EQ(result.stats.top_phrase_seconds, 0.0);
}

}  // namespace
}  // namespace infoshield
