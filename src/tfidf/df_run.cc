#include "tfidf/df_run.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

namespace {

// One chunk's per-document-distinct hashes, split by their top bits.
using Buckets = std::vector<std::vector<PhraseHash>>;

// A part finishes at least this many buckets, so inputs of under ~16k
// hashes (an incremental delta) finish inline with no thread dispatch.
constexpr size_t kMinBucketsPerPart = 16;

// Top-bit count for `bound` hashes: about 1k hashes per bucket, so each
// bucket sorts in cache, and at most 2^16 buckets.
int BucketBits(size_t bound) {
  return std::min(16, static_cast<int>(std::bit_width(bound >> 10)));
}

// The bucket of a hash: its top `bits` bits. The shift is split so that
// bits == 0 puts every hash in bucket 0 with no 64-bit shift.
size_t BucketOf(PhraseHash hash, int bits) {
  return static_cast<size_t>((hash >> 1) >> (63 - bits));
}

// analyzer: hot
void FillBuckets(const Corpus& corpus, size_t begin, size_t end,
                 size_t max_ngram, int bits, Buckets* buckets) {
  std::vector<PhraseHash> doc_hashes;
  for (size_t d = begin; d < end; ++d) {
    doc_hashes.clear();
    AppendNgramHashes(corpus.docs()[d], 1, max_ngram, &doc_hashes);
    std::sort(doc_hashes.begin(), doc_hashes.end());
    for (size_t i = 0; i < doc_hashes.size(); ++i) {
      if (i > 0 && doc_hashes[i] == doc_hashes[i - 1]) continue;
      // analyzer: allow(hot-loop-alloc) -- a bucket grows geometrically;
      // its final size is unknown until every document is counted.
      (*buckets)[BucketOf(doc_hashes[i], bits)].push_back(doc_hashes[i]);
    }
  }
}

// Gathers buckets [lo, hi) from every chunk (freeing each as it goes),
// sorts each bucket and run-length counts it into `out`, keeping counts
// >= min_df. Keys come out ascending because the buckets do.
// analyzer: hot
void FinishBuckets(std::vector<Buckets>* chunks, size_t lo, size_t hi,
                   size_t min_df, DfRun* out) {
  std::vector<PhraseHash> all;
  for (size_t b = lo; b < hi; ++b) {
    size_t total = 0;
    for (const Buckets& chunk : *chunks) total += chunk[b].size();
    all.clear();
    all.reserve(total);
    for (Buckets& chunk : *chunks) {
      all.insert(all.end(), chunk[b].begin(), chunk[b].end());
      std::vector<PhraseHash>().swap(chunk[b]);
    }
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < all.size();) {
      size_t j = i + 1;
      while (j < all.size() && all[j] == all[i]) ++j;
      if (j - i >= min_df) {
        // analyzer: allow(hot-loop-alloc) -- the part's run grows
        // geometrically; how many keys survive min_df is unknown.
        out->keys.push_back(all[i]);
        // analyzer: allow(hot-loop-alloc) -- as keys above.
        out->counts.push_back(static_cast<uint32_t>(j - i));
      }
      i = j;
    }
  }
}

}  // namespace

DfRun CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                               size_t end, size_t max_ngram,
                               size_t num_threads, size_t min_df) {
  // Each chunk writes only its own buckets and each part only its own
  // run; a bucket's count sums every chunk's copy of a key, whatever the
  // schedule, so there is no lock and no dependence on thread count.
  const size_t n = end - begin;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  size_t bound = 0;
  for (size_t d = begin; d < end; ++d) {
    bound += NumNgrams(corpus.docs()[d].tokens.size(), max_ngram);
  }
  const int bits = BucketBits(bound);
  const size_t num_buckets = size_t{1} << bits;

  const size_t num_chunks = std::min(n, threads);
  std::vector<Buckets> chunks(num_chunks, Buckets(num_buckets));
  ThreadPool::ParallelFor(num_chunks, num_chunks, [&](size_t c) {
    FillBuckets(corpus, begin + c * n / num_chunks,
                begin + (c + 1) * n / num_chunks, max_ngram, bits,
                &chunks[c]);
  });

  const size_t num_parts =
      std::clamp<size_t>(num_buckets / kMinBucketsPerPart, 1, threads);
  std::vector<DfRun> parts(num_parts);
  ThreadPool::ParallelFor(num_parts, num_parts, [&](size_t p) {
    FinishBuckets(&chunks, p * num_buckets / num_parts,
                  (p + 1) * num_buckets / num_parts, min_df, &parts[p]);
  });

  size_t total = 0;
  for (const DfRun& part : parts) total += part.keys.size();
  DfRun run;
  run.keys.reserve(total);
  run.counts.reserve(total);
  for (DfRun& part : parts) {
    run.keys.insert(run.keys.end(), part.keys.begin(), part.keys.end());
    run.counts.insert(run.counts.end(), part.counts.begin(),
                      part.counts.end());
    part = DfRun();
  }
  return run;
}

void AddDfRun(const DfRun& delta, DfRun* total) {
  DfRun sum;
  sum.keys.reserve(total->keys.size() + delta.keys.size());
  sum.counts.reserve(total->keys.size() + delta.keys.size());
  size_t i = 0;
  size_t j = 0;
  while (i < total->keys.size() || j < delta.keys.size()) {
    if (j == delta.keys.size() ||
        (i < total->keys.size() && total->keys[i] < delta.keys[j])) {
      sum.keys.push_back(total->keys[i]);
      sum.counts.push_back(total->counts[i++]);
    } else if (i == total->keys.size() || delta.keys[j] < total->keys[i]) {
      sum.keys.push_back(delta.keys[j]);
      sum.counts.push_back(delta.counts[j++]);
    } else {
      sum.keys.push_back(total->keys[i]);
      sum.counts.push_back(total->counts[i++] + delta.counts[j++]);
    }
  }
  *total = std::move(sum);
}

void AuditDfRun(const DfRun& run, size_t min_count, size_t max_count,
                audit::Auditor* a) {
  a->Expect(run.counts.size() == run.keys.size(),
            StrFormat("%zu keys but %zu counts", run.keys.size(),
                      run.counts.size()));
  for (size_t i = 0; i < run.keys.size() && i < run.counts.size(); ++i) {
    if (i > 0 && run.keys[i - 1] >= run.keys[i]) {
      a->Expect(false, StrFormat("keys #%zu..#%zu not strictly ascending",
                                 i - 1, i));
    }
    if (run.counts[i] < min_count || run.counts[i] > max_count) {
      a->Expect(false,
                StrFormat("phrase %llu has df %u outside [%zu, %zu]",
                          static_cast<unsigned long long>(run.keys[i]),
                          run.counts[i], min_count, max_count));
    }
  }
}

}  // namespace infoshield
