#include "lsh/lsh_index.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

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
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads);
  std::vector<std::vector<uint64_t>> band_keys(n);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = chunk * n / num_chunks; d < end; ++d) {
      band_keys[d] = BandKeys(signatures[d], params_);
    }
  });
  BuildFromBandKeys(band_keys, threads);
}

void LshIndex::BuildFromBandKeys(
    const std::vector<std::vector<uint64_t>>& band_keys, size_t num_threads) {
  CHECK(run_.num_docs() == 0) << "LshIndex may be built once";
  CHECK(band_keys.size() <= Corpus::kMaxDocuments)
      << "more documents than DocId can name";
  run_ = BucketRun::Build(band_keys, num_threads);
}

std::vector<DocId> LshIndex::Query(const MinHashSignature& sig) const {
  std::vector<DocId> out;
  const std::span<const uint64_t> run_keys = run_.keys();
  for (const uint64_t key : BandKeys(sig, params_)) {
    const auto it = std::lower_bound(run_keys.begin(), run_keys.end(), key);
    if (it == run_keys.end() || *it != key) continue;
    const std::span<const DocId> members =
        bucket(static_cast<size_t>(it - run_keys.begin()));
    out.insert(out.end(), members.begin(), members.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

LshIndex::Stats LshIndex::ComputeStats() const {
  Stats stats;
  stats.num_buckets = run_.num_buckets();
  for (size_t i = 0; i < run_.num_buckets(); ++i) {
    const size_t size = run_.bucket(i).size();
    stats.max_bucket = std::max(stats.max_bucket, size);
    stats.candidate_pairs += size * (size - 1) / 2;
  }
  return stats;
}

}  // namespace infoshield
