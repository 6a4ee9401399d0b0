// MinHash/LSH coarse backend driver (DESIGN.md §16).
//
// Pipeline: tokenized corpus -> per-document band bucket keys (MinHash
// signatures cut into bands, fanned across the thread pool) -> one
// LshIndex run sorted by (key, doc) -> each bucket's documents unioned
// with its first document -> connected components via
// EmitCoarseComponents. The run's contents do not depend on the thread
// count, and its buckets list the (doc, band key) edges in the
// canonical doc-major replay order, so output is byte-identical at any
// thread count and the max_phrase_degree hub cap keeps the same first
// edges of each bucket that CoarseEdgeAccumulator would (DESIGN.md §16).
//
// CoarseResult::doc_top_phrases carries each document's band keys, so
// the fine stage's phrase-sharing neighbor seeding transparently
// becomes bucket-sharing neighbor seeding.

#ifndef INFOSHIELD_LSH_LSH_COARSE_H_
#define INFOSHIELD_LSH_LSH_COARSE_H_

#include <cstddef>

#include "coarse/coarse_clustering.h"
#include "text/corpus.h"

namespace infoshield {

// Runs the MinHash/LSH candidate generator with `num_threads` workers
// (1 = the serial reference; callers pass 1 to honor
// CoarseOptions::use_serial_coarse). CHECK-fails on invalid
// minhash/lsh parameters — validate with
// options.lsh.Validate(options.minhash) first where the parameters come
// from user input.
CoarseResult RunLshCoarse(const Corpus& corpus, const CoarseOptions& options,
                          size_t num_threads);

}  // namespace infoshield

#endif  // INFOSHIELD_LSH_LSH_COARSE_H_
