// MinHash/LSH coarse backend driver (DESIGN.md §16).
//
// Pipeline: tokenized corpus -> per-document band bucket keys (MinHash
// signatures cut into bands, fanned across the thread pool) -> one
// LshIndex over them, whose BucketRun gives the bucket statistics ->
// EmitBucketComponents, the graph step the tf-idf backend shares. The
// run's contents do not depend on the thread count, so output is
// byte-identical at any thread count, and the max_phrase_degree hub cap
// keeps each bucket's first documents, the same edges a doc-major
// replay would keep (DESIGN.md §16).
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
// (1 = sequential, 0 = hardware concurrency). CHECK-fails on invalid
// minhash/lsh parameters — validate with
// options.lsh.Validate(options.minhash) first where the parameters come
// from user input.
CoarseResult RunLshCoarse(const Corpus& corpus, const CoarseOptions& options,
                          size_t num_threads);

}  // namespace infoshield

#endif  // INFOSHIELD_LSH_LSH_COARSE_H_
