// Banded LSH bucketing over MinHash signatures (DESIGN.md §16).
//
// A signature of bands * rows components is cut into `bands` contiguous
// bands; each band's rows are hashed (seeded with the band index, the
// same trick HashNgram uses with the gram length, so band 0's buckets
// can never collide with band 1's) into a 64-bit bucket key. Two
// documents become candidates iff they share at least one bucket key —
// probability 1 - (1 - J^rows)^bands for Jaccard J, the classic S-curve
// with threshold ~ (1/bands)^(1/rows).
//
// The index is one flat run sorted by (key, doc): the distinct keys in
// ascending order, each with the ascending DocIds of its bucket
// (a document listed as often as it holds the key). Build fills the
// run in document order, sorts per-thread chunks and merges them, so
// it holds no lock and no hash table, and its contents — member order
// included — are a pure function of the band keys, whatever the thread
// count. The coarse backend reads its components straight from the
// buckets; Query answers "which documents share a bucket with this
// signature" by binary search.

#ifndef INFOSHIELD_LSH_LSH_INDEX_H_
#define INFOSHIELD_LSH_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lsh/minhash.h"
#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {

struct LshParams {
  // bands * rows must equal MinHashParams::num_hashes. The defaults
  // (32 bands of 4 rows over 128 hashes) put the detection threshold at
  // (1/32)^(1/4) ~ 0.42 Jaccard — low enough that near-duplicate
  // families (J >= 0.6) are caught with probability 1 - 3e-5 or better,
  // high enough that unrelated documents almost never collide.
  size_t bands = 32;
  size_t rows = 4;

  // OK iff the banding is usable and consistent with `minhash`
  // (InvalidArgument otherwise; never dies).
  Status Validate(const MinHashParams& minhash) const;
};

// The bands 64-bit bucket keys of one signature, band-major. Empty for
// an empty signature. Pure; shared by Build, Query, and the coarse
// backend.
std::vector<uint64_t> BandKeys(const MinHashSignature& sig,
                               const LshParams& params);

class LshIndex {
 public:
  struct Stats {
    // Distinct (band, bucket) keys holding at least one document.
    size_t num_buckets = 0;
    // Occupancy of the fullest bucket (hub diagnostic).
    size_t max_bucket = 0;
    // Sum over buckets of C(|bucket|, 2): the number of candidate pairs
    // banded LSH proposes, the quantity the sub-linear claim is about.
    size_t candidate_pairs = 0;
  };

  LshIndex(const MinHashParams& minhash, const LshParams& params)
      : minhash_(minhash), params_(params) {}

  LshIndex(const LshIndex&) = delete;
  LshIndex& operator=(const LshIndex&) = delete;

  // Buckets every signature (indexed by DocId) across `num_threads`
  // workers (1 = sequential, 0 = hardware concurrency): computes each
  // document's BandKeys and calls BuildFromBandKeys. Signatures with no
  // components (empty documents) occupy no bucket. May be called once
  // per index.
  void Build(const std::vector<MinHashSignature>& signatures,
             size_t num_threads);

  // Buckets doc-major band keys: band_keys[d] holds document d's keys
  // (BandKeys of its signature; empty for an empty document). The one
  // build implementation; the result does not depend on `num_threads`.
  // May be called once per index.
  void BuildFromBandKeys(const std::vector<std::vector<uint64_t>>& band_keys,
                         size_t num_threads);

  // DocIds sharing at least one band bucket with `sig`, sorted
  // ascending, deduplicated. The probe itself is not inserted. This is
  // the primitive a serving layer's "does this new ad look like an
  // existing one" pre-filter uses.
  std::vector<DocId> Query(const MinHashSignature& sig) const;

  // Aggregate bucket statistics (one scan over the bucket offsets).
  Stats ComputeStats() const;

  // Buckets in ascending key order; bucket(i) lists the documents
  // holding the i-th smallest key, ascending, a document once per
  // occurrence of the key among its band keys.
  size_t num_buckets() const { return keys_.size(); }
  std::span<const DocId> bucket(size_t i) const {
    return {docs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  const MinHashParams& minhash_params() const { return minhash_; }
  const LshParams& params() const { return params_; }

 private:
  MinHashParams minhash_;
  LshParams params_;
  std::vector<uint64_t> keys_;  // distinct, ascending
  // Bucket i is docs_[offsets_[i], offsets_[i + 1]); size_t because
  // docs x bands can pass 2^32 near Corpus::kMaxDocuments.
  std::vector<size_t> offsets_;
  std::vector<DocId> docs_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_LSH_LSH_INDEX_H_
