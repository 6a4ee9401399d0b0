// Sorted (phrase, count) runs: the one document-frequency table behind
// both the batch df index and the incremental engine (DESIGN.md §11,
// §15).
//
// A run holds the per-document-deduplicated document frequencies of a
// contiguous document range as two parallel arrays sorted by hash. It is
// built with no hash table and no global sort: every document's n-gram
// hashes are sorted and deduplicated, then appended to the bucket for
// their top hash bits; each bucket is sorted and run-length counted on
// its own, small enough to stay in cache. The buckets partition the key
// space in ascending order, so concatenating their runs gives the sorted
// run, and the counts never depend on which thread counted which
// document. Runs over consecutive document ranges add up (AddDfRun) to
// the run of their union, which is how the incremental engine folds in
// each batch.

#ifndef INFOSHIELD_TFIDF_DF_RUN_H_
#define INFOSHIELD_TFIDF_DF_RUN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"
#include "util/audit.h"

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

// Adds `delta` into `total`: one linear merge of the two sorted runs
// that sums the counts of equal keys. With both counted at min_df 1 over
// disjoint document ranges, the sum is the run of their union.
void AddDfRun(const DfRun& delta, DfRun* total);

// Audits a run into `a`: the arrays line up, keys are strictly
// ascending and every count lies in [min_count, max_count].
void AuditDfRun(const DfRun& run, size_t min_count, size_t max_count,
                audit::Auditor* a);

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_DF_RUN_H_
