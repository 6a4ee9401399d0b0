#include "tfidf/snapshot_df_table.h"

#include <utility>

#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

DfSnapshot SnapshotDfTable::Snapshot() const {
  MutexLock lock(&mu_);
  DfSnapshot snap;
  snap.shards_ = shards_;
  snap.num_documents_ = num_documents_;
  snap.num_phrases_ = num_phrases_;
  snap.generation_ = generation_;
  return snap;
}

void SnapshotDfTable::ApplyBatch(DfRun* delta, size_t num_new_documents) {
  // Copy-on-write fold-in: untouched shards keep their pointer (shared
  // with every live snapshot); touched shards are cloned, updated, and
  // swapped. Readers holding a DfSnapshot keep the old maps alive via
  // their shared_ptrs, so nothing they can see ever mutates. Writers are
  // expected to be serialized by the caller (IncrementalInfoShield runs
  // one ingest at a time); mu_ still makes concurrent ApplyBatch safe,
  // just not fast.
  const std::vector<PhraseHash>& keys = delta->keys;
  size_t phrase_delta = 0;
  {
    MutexLock lock(&mu_);
    // The run is sorted by hash, so each shard's slice is contiguous.
    for (size_t begin = 0; begin < keys.size();) {
      const size_t s = DfSnapshot::ShardOf(keys[begin]);
      size_t end = begin + 1;
      while (end < keys.size() && DfSnapshot::ShardOf(keys[end]) == s) ++end;
      auto clone = shards_[s] == nullptr
                       ? std::make_shared<ShardMap>()
                       : std::make_shared<ShardMap>(*shards_[s]);
      for (size_t i = begin; i < end; ++i) {
        auto [it, inserted] = clone->emplace(keys[i], delta->counts[i]);
        if (inserted) {
          ++phrase_delta;
        } else {
          it->second += delta->counts[i];
        }
      }
      shards_[s] = std::move(clone);
      begin = end;
    }
    num_documents_ += num_new_documents;
    num_phrases_ += phrase_delta;
    ++generation_;
  }
  *delta = DfRun();
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

size_t SnapshotDfTable::num_documents() const {
  MutexLock lock(&mu_);
  return num_documents_;
}

uint64_t SnapshotDfTable::generation() const {
  MutexLock lock(&mu_);
  return generation_;
}

Status SnapshotDfTable::ValidateInvariants() const {
  const DfSnapshot snap = Snapshot();
  audit::Auditor a("SnapshotDfTable");
  size_t total_phrases = 0;
  for (size_t s = 0; s < DfSnapshot::kNumShards; ++s) {
    const DfSnapshot::ShardMap* shard = snap.shards_[s].get();
    if (shard == nullptr) continue;
    total_phrases += shard->size();
    // determinism: validation only; each entry is checked independently.
    for (const auto& [hash, df] : *shard) {
      if (DfSnapshot::ShardOf(hash) != s) {
        a.Expect(false,
                 StrFormat("phrase %llu stored in shard %zu but hashes to "
                           "shard %zu",
                           static_cast<unsigned long long>(hash), s,
                           DfSnapshot::ShardOf(hash)));
      }
      if (df < 1 || df > snap.num_documents()) {
        a.Expect(false,
                 StrFormat("phrase %llu has df %u outside [1, %zu]",
                           static_cast<unsigned long long>(hash), df,
                           snap.num_documents()));
      }
    }
  }
  a.Expect(total_phrases == snap.num_phrases(),
           StrFormat("cached num_phrases %zu but shards hold %zu",
                     snap.num_phrases(), total_phrases));
  return a.Finish();
}

}  // namespace infoshield
