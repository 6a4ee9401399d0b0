// Sorted (phrase, count) runs: the one document-frequency counter behind
// both the batch df index and the incremental snapshot delta
// (DESIGN.md §11, §15).
//
// A run holds the per-document-deduplicated document frequencies of a
// contiguous document range as two parallel arrays sorted by hash. It is
// built with no hash table and no global sort: every document's n-gram
// hashes are sorted and deduplicated, then appended to the bucket for
// their top hash bits; each bucket is sorted and run-length counted on
// its own, small enough to stay in cache. The buckets partition the key
// space in ascending order, so concatenating their runs gives the sorted
// run, and the counts never depend on which thread counted which
// document.

#ifndef INFOSHIELD_TFIDF_DF_RUN_H_
#define INFOSHIELD_TFIDF_DF_RUN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"

namespace infoshield {

struct DfRun {
  std::vector<PhraseHash> keys;  // strictly ascending
  std::vector<uint32_t> counts;  // counts[i] is the df of keys[i]
};

// The document frequencies of the n-grams (lengths 1..max_ngram) of
// documents [begin, end) of `corpus`: each document counts at most once
// per phrase, and only phrases with df >= min_df are kept (min_df <= 1
// keeps every phrase). The range splits into one contiguous chunk per
// thread (0 = hardware concurrency) and the buckets are finished in
// parallel, so the result is the same for any thread count. Both arrays
// are sized exactly.
DfRun CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                               size_t end, size_t max_ngram,
                               size_t num_threads = 1, size_t min_df = 1);

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_DF_RUN_H_
