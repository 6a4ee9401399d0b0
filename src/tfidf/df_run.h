// Sorted (phrase, count) runs: the one document-frequency counter behind
// both the batch df index and the incremental snapshot delta
// (DESIGN.md §11, §15).
//
// A run holds the per-document-deduplicated document frequencies of a
// contiguous document range as two parallel arrays sorted by hash. It is
// built with no hash table: every document's n-gram hashes are sorted
// and deduplicated in place, appended to one exactly reserved vector,
// and the vector is sorted and run-length counted once. Runs over
// disjoint document ranges merge by a k-way walk in hash order, so the
// merged counts never depend on which thread built which run.

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
// per phrase. The range splits into one contiguous chunk per thread
// (0 = hardware concurrency); each chunk counts a private run and the
// runs are k-way merged, so the result is the same for any thread
// count. Both arrays are sized exactly.
DfRun CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                               size_t end, size_t max_ngram,
                               size_t num_threads = 1);

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_DF_RUN_H_
