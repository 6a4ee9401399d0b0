#include "tfidf/df_run.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace infoshield {

namespace {

// analyzer: hot
DfRun CountChunk(const Corpus& corpus, size_t begin, size_t end,
                 size_t max_ngram) {
  // The n-gram count bounds the per-document-distinct count, so one
  // exact reservation holds every hash and the vector never regrows.
  size_t bound = 0;
  for (size_t d = begin; d < end; ++d) {
    bound += NumNgrams(corpus.docs()[d].tokens.size(), max_ngram);
  }
  std::vector<PhraseHash> hashes;
  hashes.reserve(bound);
  for (size_t d = begin; d < end; ++d) {
    const size_t first = hashes.size();
    for (const NgramSpan& g : ExtractNgrams(corpus.docs()[d], max_ngram)) {
      hashes.push_back(g.hash);
    }
    std::sort(hashes.begin() + first, hashes.end());
    hashes.erase(std::unique(hashes.begin() + first, hashes.end()),
                 hashes.end());
  }
  std::sort(hashes.begin(), hashes.end());

  size_t distinct = 0;
  for (size_t i = 0; i < hashes.size(); ++i) {
    if (i == 0 || hashes[i] != hashes[i - 1]) ++distinct;
  }
  DfRun run;
  run.keys.reserve(distinct);
  run.counts.reserve(distinct);
  for (size_t i = 0; i < hashes.size();) {
    size_t j = i + 1;
    while (j < hashes.size() && hashes[j] == hashes[i]) ++j;
    run.keys.push_back(hashes[i]);
    run.counts.push_back(static_cast<uint32_t>(j - i));
    i = j;
  }
  return run;
}

DfRun MergeRuns(std::vector<DfRun> runs) {
  if (runs.size() == 1) return std::move(runs[0]);
  // The same k-way walk runs twice: once to count the distinct keys, then
  // to fill arrays of exactly that size. Each step emits the smallest
  // head key with its counts summed over every run that holds it.
  auto walk = [&runs](auto&& emit) {
    std::vector<size_t> pos(runs.size(), 0);
    while (true) {
      bool any = false;
      PhraseHash key = 0;
      for (size_t r = 0; r < runs.size(); ++r) {
        if (pos[r] == runs[r].keys.size()) continue;
        if (!any || runs[r].keys[pos[r]] < key) key = runs[r].keys[pos[r]];
        any = true;
      }
      if (!any) return;
      uint32_t count = 0;
      for (size_t r = 0; r < runs.size(); ++r) {
        if (pos[r] < runs[r].keys.size() && runs[r].keys[pos[r]] == key) {
          count += runs[r].counts[pos[r]++];
        }
      }
      emit(key, count);
    }
  };
  size_t distinct = 0;
  walk([&distinct](PhraseHash, uint32_t) { ++distinct; });
  DfRun merged;
  merged.keys.reserve(distinct);
  merged.counts.reserve(distinct);
  walk([&merged](PhraseHash key, uint32_t count) {
    merged.keys.push_back(key);
    merged.counts.push_back(count);
  });
  return merged;
}

}  // namespace

DfRun CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                               size_t end, size_t max_ngram,
                               size_t num_threads) {
  // Each chunk writes only its own run, and the merge visits keys in
  // hash order whichever thread built which run: no lock, and no
  // dependence on the schedule.
  const size_t n = end - begin;
  const size_t num_chunks =
      std::min(n, ThreadPool::ResolveNumThreads(num_threads));
  std::vector<DfRun> runs(num_chunks);
  ThreadPool::ParallelFor(num_chunks, num_chunks, [&](size_t chunk) {
    runs[chunk] = CountChunk(corpus, begin + chunk * n / num_chunks,
                             begin + (chunk + 1) * n / num_chunks, max_ngram);
  });
  return MergeRuns(std::move(runs));
}

}  // namespace infoshield
