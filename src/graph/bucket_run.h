// A sorted (key, document) bucket run: the document–key bipartite graph
// of the coarse stage (DESIGN.md §16) in one flat array.
//
// Input is doc-major: keys[d] lists document d's 64-bit keys — its top
// tf-idf phrase hashes, or its LSH band keys; the run does not care
// which. The run holds the distinct keys in ascending order, each with
// the ascending documents of its bucket (a document listed as often as
// it holds the key). Build fills the run in document order, sorts
// per-thread chunks and merges them pairwise, so it holds no lock and
// no hash table, and its contents — member order included — are a pure
// function of the keys, whatever the thread count.
//
// UnionBuckets turns the run into connected components: each bucket's
// documents join its first (smallest) one. Components depend only on
// which (document, key) edges are kept, and a bucket lists its key's
// occurrences in doc-major order, so a degree cap that keeps each key's
// first `cap` occurrences keeps exactly the first `cap` members of the
// bucket.

#ifndef INFOSHIELD_GRAPH_BUCKET_RUN_H_
#define INFOSHIELD_GRAPH_BUCKET_RUN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/union_find.h"

namespace infoshield {

class BucketRun {
 public:
  BucketRun() = default;

  // Sorts doc-major `keys` into the run across `num_threads` workers
  // (1 = sequential, 0 = hardware concurrency). Documents with no keys
  // occupy no bucket but still count in num_docs().
  static BucketRun Build(const std::vector<std::vector<uint64_t>>& keys,
                         size_t num_threads);

  // Documents the run was built over (keys.size()).
  size_t num_docs() const { return num_docs_; }

  // Buckets in ascending key order; bucket(i) lists the documents
  // holding keys()[i], ascending, once per occurrence.
  size_t num_buckets() const { return keys_.size(); }
  std::span<const uint64_t> keys() const { return keys_; }
  std::span<const uint32_t> bucket(size_t i) const {
    return {docs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  size_t num_docs_ = 0;
  std::vector<uint64_t> keys_;  // distinct, ascending
  // Bucket i is docs_[offsets_[i], offsets_[i + 1]); size_t because
  // docs x keys per doc can pass 2^32.
  std::vector<size_t> offsets_;
  std::vector<uint32_t> docs_;
};

// Unions each bucket's first min(size, max_degree) documents with its
// first document (max_degree 0 = no cap) into `uf`, which must cover
// run.num_docs() elements.
void UnionBuckets(const BucketRun& run, size_t max_degree, UnionFind* uf);

}  // namespace infoshield

#endif  // INFOSHIELD_GRAPH_BUCKET_RUN_H_
