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

namespace {

// One (bucket key, document) pair of the run. Ordered by key, then doc,
// so a sorted run lists each bucket's members in ascending DocId order.
struct BucketEntry {
  uint64_t key;
  DocId doc;

  bool operator<(const BucketEntry& other) const {
    return key != other.key ? key < other.key : doc < other.doc;
  }
};

}  // namespace

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

// analyzer: hot
void LshIndex::BuildFromBandKeys(
    const std::vector<std::vector<uint64_t>>& band_keys, size_t num_threads) {
  CHECK(keys_.empty() && offsets_.empty() && docs_.empty())
      << "LshIndex may be built once";
  const size_t n = band_keys.size();
  if (n == 0) return;
  CHECK(n <= Corpus::kMaxDocuments) << "more documents than DocId can name";
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads);

  // Chunk c owns documents [c * n / num_chunks, (c + 1) * n / num_chunks)
  // and entries [chunk_begin[c], chunk_begin[c + 1]) of the run.
  std::vector<size_t> chunk_begin(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t entries = 0;
    const size_t end = (c + 1) * n / num_chunks;
    for (size_t d = c * n / num_chunks; d < end; ++d) {
      entries += band_keys[d].size();
    }
    chunk_begin[c + 1] = chunk_begin[c] + entries;
  }
  const size_t total = chunk_begin[num_chunks];

  // Each chunk fills and sorts only its own slice of the run; the sorted
  // slices then merge pairwise (each round's merges in parallel). Every
  // (key, doc) pair lands in the same place whichever thread wrote it.
  std::vector<BucketEntry> run(total);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t c) {
    size_t e = chunk_begin[c];
    const size_t end = (c + 1) * n / num_chunks;
    for (size_t d = c * n / num_chunks; d < end; ++d) {
      for (const uint64_t key : band_keys[d]) {
        run[e++] = {key, static_cast<DocId>(d)};
      }
    }
    std::sort(run.begin() + chunk_begin[c], run.begin() + chunk_begin[c + 1]);
  });
  for (size_t width = 1; width < num_chunks; width *= 2) {
    const size_t pairs = (num_chunks + 2 * width - 1) / (2 * width);
    ThreadPool::ParallelFor(threads, pairs, [&](size_t p) {
      const size_t lo = 2 * width * p;
      const size_t mid = std::min(lo + width, num_chunks);
      const size_t hi = std::min(lo + 2 * width, num_chunks);
      std::inplace_merge(run.begin() + chunk_begin[lo],
                         run.begin() + chunk_begin[mid],
                         run.begin() + chunk_begin[hi]);
    });
  }

  size_t distinct = 0;
  for (size_t i = 0; i < total; ++i) {
    if (i == 0 || run[i].key != run[i - 1].key) ++distinct;
  }
  keys_.reserve(distinct);
  offsets_.reserve(distinct + 1);
  docs_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    if (i == 0 || run[i].key != run[i - 1].key) {
      keys_.push_back(run[i].key);
      offsets_.push_back(i);
    }
    docs_[i] = run[i].doc;
  }
  offsets_.push_back(total);
}

std::vector<DocId> LshIndex::Query(const MinHashSignature& sig) const {
  std::vector<DocId> out;
  const std::vector<uint64_t> keys = BandKeys(sig, params_);
  for (const uint64_t key : keys) {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) continue;
    const std::span<const DocId> members =
        bucket(static_cast<size_t>(it - keys_.begin()));
    out.insert(out.end(), members.begin(), members.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

LshIndex::Stats LshIndex::ComputeStats() const {
  Stats stats;
  stats.num_buckets = keys_.size();
  for (size_t i = 0; i < keys_.size(); ++i) {
    const size_t size = offsets_[i + 1] - offsets_[i];
    stats.max_bucket = std::max(stats.max_bucket, size);
    stats.candidate_pairs += size * (size - 1) / 2;
  }
  return stats;
}

}  // namespace infoshield
