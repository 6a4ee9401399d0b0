#include "coarse/coarse_clustering.h"

#include <algorithm>
#include <vector>

#include "graph/bucket_run.h"
#include "graph/connected_components.h"
#include "graph/union_find.h"
#include "lsh/lsh_coarse.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

void EmitCoarseComponents(UnionFind& uf, const CoarseOptions& options,
                          CoarseResult* result) {
  Components components = ExtractComponents(uf, /*min_component_size=*/1);
  for (auto& group : components.groups) {
    if (group.size() < options.min_cluster_size) {
      for (uint32_t id : group) result->singletons.push_back(id);
    } else {
      result->clusters.push_back(std::move(group));
    }
  }
  // Canonical emission order: undersized groups arrive sorted by their
  // first member, so their documents interleave; sort so the singleton
  // list is the same ascending sequence however the groups fell out.
  std::sort(result->singletons.begin(), result->singletons.end());
}

void EmitBucketComponents(const BucketRun& run, const CoarseOptions& options,
                          CoarseResult* result) {
  WallTimer timer;
  UnionFind uf(run.num_docs());
  UnionBuckets(run, options.max_phrase_degree, &uf);
  result->stats.graph_seconds += timer.ElapsedSeconds();

  timer.Restart();
  EmitCoarseComponents(uf, options, result);
  result->stats.components_seconds = timer.ElapsedSeconds();
}

// analyzer: hot
CoarseResult CoarseClustering::Run(const Corpus& corpus) const {
  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  if (options_.backend == CoarseBackend::kMinhashLsh) {
    return RunLshCoarse(corpus, options_, threads);
  }
  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;
  result.stats.parallel_threads = threads;

  WallTimer timer;
  TfidfIndex index;
  index.Build(corpus, options_.tfidf, threads);
  result.stats.index_seconds = timer.ElapsedSeconds();

  // Top-phrase selection: df is frozen, so TopPhrases is a pure function
  // of the document. Workers own contiguous document chunks and write
  // only their chunk's doc_top_phrases slots.
  timer.Restart();
  result.doc_top_phrases.resize(n);
  const size_t num_chunks = std::min(n, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = chunk * n / num_chunks; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- TopPhrases returns by value
      // (one move per document, the API contract).
      const std::vector<ScoredPhrase> scored =
          index.TopPhrases(corpus.docs()[d]);
      std::vector<PhraseHash>& top = result.doc_top_phrases[d];
      top.reserve(scored.size());
      for (const ScoredPhrase& phrase : scored) top.push_back(phrase.hash);
    }
  });
  for (const std::vector<PhraseHash>& top : result.doc_top_phrases) {
    result.num_edges += top.size();
  }
  result.stats.top_phrase_seconds = timer.ElapsedSeconds();

  timer.Restart();
  const BucketRun run = BucketRun::Build(result.doc_top_phrases, threads);
  result.stats.graph_seconds = timer.ElapsedSeconds();
  EmitBucketComponents(run, options_, &result);
  return result;
}

}  // namespace infoshield
