#include "graph/bucket_run.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace infoshield {

namespace {

// One (key, document) pair of the run. Ordered by key, then doc, so a
// sorted run lists each bucket's members in ascending document order.
struct BucketEntry {
  uint64_t key;
  uint32_t doc;

  bool operator<(const BucketEntry& other) const {
    return key != other.key ? key < other.key : doc < other.doc;
  }
};

}  // namespace

// analyzer: hot
BucketRun BucketRun::Build(const std::vector<std::vector<uint64_t>>& keys,
                           size_t num_threads) {
  BucketRun out;
  const size_t n = keys.size();
  out.num_docs_ = n;
  if (n == 0) return out;
  CHECK(n <= UINT32_MAX) << "more documents than a uint32_t id can name";
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads);

  // Chunk c owns documents [c * n / num_chunks, (c + 1) * n / num_chunks)
  // and entries [chunk_begin[c], chunk_begin[c + 1]) of the run.
  std::vector<size_t> chunk_begin(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t entries = 0;
    const size_t end = (c + 1) * n / num_chunks;
    for (size_t d = c * n / num_chunks; d < end; ++d) {
      entries += keys[d].size();
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
      for (const uint64_t key : keys[d]) {
        run[e++] = {key, static_cast<uint32_t>(d)};
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
  out.keys_.reserve(distinct);
  out.offsets_.reserve(distinct + 1);
  out.docs_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    if (i == 0 || run[i].key != run[i - 1].key) {
      out.keys_.push_back(run[i].key);
      out.offsets_.push_back(i);
    }
    out.docs_[i] = run[i].doc;
  }
  out.offsets_.push_back(total);
  return out;
}

// analyzer: hot
void UnionBuckets(const BucketRun& run, size_t max_degree, UnionFind* uf) {
  CHECK(uf->num_elements() == run.num_docs())
      << "union-find does not cover the run's documents";
  const size_t cap = max_degree == 0 ? SIZE_MAX : max_degree;
  for (size_t b = 0; b < run.num_buckets(); ++b) {
    const std::span<const uint32_t> members = run.bucket(b);
    const size_t kept = std::min(members.size(), cap);
    for (size_t i = 1; i < kept; ++i) uf->Union(members[0], members[i]);
  }
}

}  // namespace infoshield
