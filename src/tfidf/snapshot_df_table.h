// Versioned document-frequency store with copy-on-write snapshots — the
// df side of the incremental ingestion core (DESIGN.md §15).
//
// The batch pipeline rebuilds its df table from scratch every run. The
// incremental path instead keeps one long-lived SnapshotDfTable: each
// IngestBatch counts the new documents' per-document-deduplicated
// phrase frequencies into a sorted run (df_run.h, the same counter the
// batch TfidfIndex::Build uses) and folds it in with ApplyBatch.
// Because df accumulation is a commutative integer sum, the folded
// table is byte-identical to a from-scratch build over the concatenated
// corpus — that additivity is what makes the incremental path's
// differential oracle (exact JSON match vs. a fresh batch run)
// attainable at all.
//
// Snapshots are structural-sharing copies: the table holds 64 immutable
// shard maps behind shared_ptr<const ...>, partitioned by the hash's top
// six bits, and Snapshot() copies 64 pointers under the mutex. Because a
// run is sorted by hash, each shard's share of it is one contiguous
// slice. ApplyBatch clones only the shards the batch actually touches
// and swaps the pointers, so a reader holding a DfSnapshot keeps
// scoring against its frozen generation no matter how many batches land
// concurrently. Readers never lock; the writer locks only for the
// pointer swap.

#ifndef INFOSHIELD_TFIDF_SNAPSHOT_DF_TABLE_H_
#define INFOSHIELD_TFIDF_SNAPSHOT_DF_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "text/ngram.h"
#include "tfidf/df_run.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace infoshield {

// An immutable view of the df table as of one generation. Cheap to copy
// (64 shared_ptrs + counters) and safe to read from any thread with no
// synchronization: the shard maps it points at are never mutated.
class DfSnapshot {
 public:
  // Power of two so ShardOf is a shift+mask.
  static constexpr size_t kNumShards = 64;

  // A phrase's shard: the hash's top bits, so a sorted run splits into
  // one contiguous slice per shard (and unordered_map buckets, which key
  // off the low bits, stay independent of the partition).
  static constexpr size_t ShardOf(PhraseHash hash) {
    return static_cast<size_t>(hash >> 58) & (kNumShards - 1);
  }

  // A default snapshot is generation 0 of an empty table.
  DfSnapshot() = default;

  // Document frequency of a phrase as of this snapshot (0 if unseen).
  size_t DocumentFrequency(PhraseHash phrase) const {
    const ShardMap* shard = shards_[ShardOf(phrase)].get();
    if (shard == nullptr) return 0;
    auto it = shard->find(phrase);
    return it == shard->end() ? 0 : it->second;
  }

  // Number of documents folded in as of this snapshot (the N in idf).
  size_t num_documents() const { return num_documents_; }

  // Distinct phrases across all shards.
  size_t num_phrases() const { return num_phrases_; }

  // Monotone version counter: 0 for the empty table, +1 per ApplyBatch.
  uint64_t generation() const { return generation_; }

 private:
  friend class SnapshotDfTable;

  using ShardMap = std::unordered_map<PhraseHash, uint32_t>;

  std::array<std::shared_ptr<const ShardMap>, kNumShards> shards_;
  size_t num_documents_ = 0;
  size_t num_phrases_ = 0;
  uint64_t generation_ = 0;
};

class SnapshotDfTable {
 public:
  SnapshotDfTable() = default;

  SnapshotDfTable(const SnapshotDfTable&) = delete;
  SnapshotDfTable& operator=(const SnapshotDfTable&) = delete;

  // The current generation's frozen view. Thread-safe and cheap; the
  // returned snapshot stays valid (and unchanged) forever.
  DfSnapshot Snapshot() const;

  // Folds a batch's df delta into the table: clones each shard `delta`
  // touches, adds the counts, swaps the pointers, advances the
  // generation by one, and adds `num_new_documents` to the document
  // count. Clears `delta`. Existing snapshots are unaffected.
  //
  // `delta` must hold per-document-deduplicated counts (each document
  // contributes at most 1 per phrase) of every phrase, as
  // CountDocumentFrequencies produces them at its default min_df = 1: a
  // phrase of df 1 can reach df 2 in a later batch, so none is dropped.
  void ApplyBatch(DfRun* delta, size_t num_new_documents);

  size_t num_documents() const;
  uint64_t generation() const;

  // Deep invariant audit (util/audit.h): every shard pointer that was
  // ever materialized hashes its phrases into that shard, every df lies
  // in [1, num_documents], and the cached num_phrases matches the sum
  // of shard sizes. Returns OK or an Internal status listing every
  // violation.
  Status ValidateInvariants() const;

 private:
  using ShardMap = DfSnapshot::ShardMap;

  mutable Mutex mu_;
  std::array<std::shared_ptr<const ShardMap>, DfSnapshot::kNumShards>
      shards_ GUARDED_BY(mu_);
  size_t num_documents_ GUARDED_BY(mu_) = 0;
  size_t num_phrases_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
};

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_SNAPSHOT_DF_TABLE_H_
