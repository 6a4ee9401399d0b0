#include "lsh/lsh_index.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoshield {

Status LshParams::Validate(const MinHashParams& minhash) const {
  Status minhash_status = minhash.Validate();
  if (!minhash_status.ok()) return minhash_status;
  if (bands == 0) {
    return Status::InvalidArgument("LSH bands must be positive");
  }
  if (rows == 0) {
    return Status::InvalidArgument("LSH rows must be positive");
  }
  if (bands * rows != minhash.num_hashes) {
    return Status::InvalidArgument(
        "LSH banding must tile the signature exactly: bands * rows == "
        "num_hashes (got " +
        std::to_string(bands) + " * " + std::to_string(rows) +
        " != " + std::to_string(minhash.num_hashes) + ")");
  }
  return Status::Ok();
}

std::vector<uint64_t> BandKeys(const MinHashSignature& sig,
                               const LshParams& params) {
  std::vector<uint64_t> keys;
  if (sig.empty()) return keys;
  CHECK(sig.size() == params.bands * params.rows)
      << "signature width does not match the banding";
  keys.reserve(params.bands);
  for (size_t band = 0; band < params.bands; ++band) {
    // Chained SplitMix64 over the band's rows, seeded with the band
    // index so keys from different bands live in disjoint key spaces
    // (the HashNgram length-seeding trick).
    uint64_t h = 0x9e3779b97f4a7c15ull * (band + 1);
    for (size_t r = 0; r < params.rows; ++r) {
      uint64_t state = h ^ sig[band * params.rows + r];
      h = SplitMix64(state);
    }
    keys.push_back(h);
  }
  return keys;
}

void LshIndex::Build(const std::vector<MinHashSignature>& signatures,
                     size_t num_threads) {
  const size_t n = signatures.size();
  if (n == 0) return;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads * 4);
  // Each worker owns a contiguous chunk of documents, accumulates its
  // bucket inserts into a private shard-partitioned buffer, and flushes
  // each shard under that shard's Mutex exactly once, so lock traffic is
  // O(shards) per chunk instead of O(docs * bands).
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * n / num_chunks;
    const size_t end = (chunk + 1) * n / num_chunks;
    std::array<std::unordered_map<uint64_t, std::vector<DocId>>, kNumShards>
        local;
    // Most band keys are unique (non-duplicate documents never share
    // one), so size each local shard for the worst case up front —
    // growing a multi-million-entry map through rehashes dominates the
    // build otherwise.
    const size_t expected = (end - begin) * params_.bands / kNumShards + 1;
    // determinism: reserve() only — no elements exist yet, nothing to
    // observe in any order.
    for (auto& shard : local) shard.reserve(expected);
    for (size_t d = begin; d < end; ++d) {
      const std::vector<uint64_t> keys = BandKeys(signatures[d], params_);
      for (const uint64_t key : keys) {
        local[ShardOf(key)][key].push_back(static_cast<DocId>(d));
      }
    }
    for (size_t s = 0; s < kNumShards; ++s) {
      if (local[s].empty()) continue;
      MutexLock lock(&shards_[s].mu);
      // determinism: merge order only affects bucket-internal member
      // order, which no reader observes unsorted (see header).
      for (auto& [key, docs] : local[s]) {
        std::vector<DocId>& bucket = shards_[s].buckets[key];
        bucket.insert(bucket.end(), docs.begin(), docs.end());
      }
    }
  });
}

std::vector<DocId> LshIndex::Query(const MinHashSignature& sig) const {
  std::vector<DocId> out;
  const std::vector<uint64_t> keys = BandKeys(sig, params_);
  for (const uint64_t key : keys) {
    const Shard& shard = shards_[ShardOf(key)];
    MutexLock lock(&shard.mu);
    auto it = shard.buckets.find(key);
    if (it == shard.buckets.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

LshIndex::Stats LshIndex::ComputeStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    stats.num_buckets += shard.buckets.size();
    // determinism: commutative aggregation (sum/max) only; no element
    // order observed.
    for (const auto& [key, docs] : shard.buckets) {
      stats.max_bucket = std::max(stats.max_bucket, docs.size());
      stats.candidate_pairs += docs.size() * (docs.size() - 1) / 2;
    }
  }
  return stats;
}

}  // namespace infoshield
