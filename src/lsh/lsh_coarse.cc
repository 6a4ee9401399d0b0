#include "lsh/lsh_coarse.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

// analyzer: hot
CoarseResult RunLshCoarse(const Corpus& corpus, const CoarseOptions& options,
                          size_t num_threads) {
  CHECK(options.lsh.Validate(options.minhash).ok())
      << "invalid MinHash/LSH parameters reached RunLshCoarse: "
      << options.lsh.Validate(options.minhash).ToString();

  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  result.stats.parallel_threads = threads;

  // Band keys: a pure per-document function of (tokens, hash family),
  // so workers own contiguous chunks and write only their chunk's
  // slots — no shared mutable state, no df-style barrier, and the
  // result is independent of the thread count by construction. The
  // signature is dropped as soon as its keys are cut.
  WallTimer timer;
  const MinHashFamily family(options.minhash);
  result.doc_top_phrases.resize(n);
  const size_t num_chunks = std::min(n, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * n / num_chunks;
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = begin; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- Signature/BandKeys return
      // their per-document vectors by value (one move per document,
      // the API contract).
      result.doc_top_phrases[d] =
          BandKeys(family.Signature(corpus.docs()[d].tokens), options.lsh);
    }
  });
  for (const std::vector<PhraseHash>& keys : result.doc_top_phrases) {
    result.num_edges += keys.size();
  }
  result.stats.signature_seconds = timer.ElapsedSeconds();

  // The sorted bucket run: its bucket statistics, and the buckets the
  // components come from.
  timer.Restart();
  LshIndex index(options.minhash, options.lsh);
  index.BuildFromBandKeys(result.doc_top_phrases, threads);
  const LshIndex::Stats bucket_stats = index.ComputeStats();
  result.stats.lsh_buckets = bucket_stats.num_buckets;
  result.stats.lsh_max_bucket = bucket_stats.max_bucket;
  result.stats.lsh_candidate_pairs = bucket_stats.candidate_pairs;
  result.stats.bucket_seconds = timer.ElapsedSeconds();

  // Documents sharing a bucket are unioned through the bucket's first
  // (smallest) document. This is the canonical doc-major (doc, band key)
  // edge replay through CoarseEdgeAccumulator without the hash maps: that
  // replay meets each key's documents in ascending order, anchors the key
  // on the first and drops every Add past max_phrase_degree — exactly the
  // bucket's first min(size, cap) entries, duplicates included.
  timer.Restart();
  UnionFind uf(n);
  const size_t cap = options.max_phrase_degree == 0
                         ? SIZE_MAX
                         : options.max_phrase_degree;
  for (size_t b = 0; b < index.num_buckets(); ++b) {
    const std::span<const DocId> members = index.bucket(b);
    const size_t kept = std::min(members.size(), cap);
    for (size_t i = 1; i < kept; ++i) uf.Union(members[0], members[i]);
  }
  result.stats.graph_seconds = timer.ElapsedSeconds();

  timer.Restart();
  EmitCoarseComponents(uf, options, &result);
  result.stats.components_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace infoshield
