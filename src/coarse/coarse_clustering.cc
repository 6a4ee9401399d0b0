#include "coarse/coarse_clustering.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "graph/connected_components.h"
#include "graph/union_find.h"
#include "lsh/lsh_coarse.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

namespace {

// One bipartite document->phrase edge. Workers emit edges into
// per-chunk buffers; the graph phase replays them in canonical
// (document, phrase-rank) order — the order the serial reference
// produces them in.
struct CoarseEdge {
  DocId doc;
  PhraseHash phrase;
};

}  // namespace

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

CoarseResult CoarseClustering::Run(const Corpus& corpus) const {
  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  const bool serial =
      options_.use_serial_coarse || threads <= 1 || corpus.size() < 2;
  if (options_.backend == CoarseBackend::kMinhashLsh) {
    return RunLshCoarse(corpus, options_, serial ? 1 : threads);
  }
  if (serial) {
    return RunSerial(corpus);
  }
  return RunParallel(corpus, threads);
}

// analyzer: hot
CoarseResult CoarseClustering::RunSerial(const Corpus& corpus) const {
  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;

  WallTimer timer;
  TfidfIndex index;
  index.Build(corpus, options_.tfidf);
  result.stats.index_seconds = timer.ElapsedSeconds();

  // Top-phrase selection: pure per-document scoring against the frozen
  // df table.
  timer.Restart();
  result.doc_top_phrases.resize(n);
  for (const Document& doc : corpus.docs()) {
    // analyzer: allow(hot-loop-alloc) -- TopPhrases returns its scored
    // list by value (one move per document, the API contract).
    const std::vector<ScoredPhrase> scored = index.TopPhrases(doc);
    std::vector<PhraseHash>& top = result.doc_top_phrases[doc.id];
    top.reserve(scored.size());
    for (const ScoredPhrase& phrase : scored) {
      ++result.num_edges;
      top.push_back(phrase.hash);
    }
  }
  result.stats.top_phrase_seconds = timer.ElapsedSeconds();

  timer.Restart();
  UnionFind uf(n);
  CoarseEdgeAccumulator edges(options_.max_phrase_degree, &uf);
  for (DocId d = 0; d < n; ++d) {
    for (PhraseHash phrase : result.doc_top_phrases[d]) {
      edges.Add(d, phrase);
    }
  }
  result.stats.graph_seconds = timer.ElapsedSeconds();

  timer.Restart();
  EmitCoarseComponents(uf, options_, &result);
  result.stats.components_seconds = timer.ElapsedSeconds();
  return result;
}

// analyzer: hot
CoarseResult CoarseClustering::RunParallel(const Corpus& corpus,
                                           size_t threads) const {
  CoarseResult result;
  const size_t n = corpus.size();

  WallTimer timer;
  TfidfIndex index;
  index.Build(corpus, options_.tfidf, threads);
  result.stats.index_seconds = timer.ElapsedSeconds();
  result.stats.parallel_threads = threads;

  // Per-document top-phrase selection + edge generation: df is frozen,
  // so TopPhrases is a pure function of the document. Workers own
  // contiguous document chunks and write only their chunk's
  // doc_top_phrases slots and their chunk's private edge buffer — no
  // shared mutable state.
  timer.Restart();
  result.doc_top_phrases.resize(n);
  const size_t num_chunks = std::min(n, threads * 4);
  std::vector<std::vector<CoarseEdge>> chunk_edges(num_chunks);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * n / num_chunks;
    const size_t end = (chunk + 1) * n / num_chunks;
    std::vector<CoarseEdge>& edges = chunk_edges[chunk];
    for (size_t d = begin; d < end; ++d) {
      const Document& doc = corpus.docs()[d];
      // analyzer: allow(hot-loop-alloc) -- TopPhrases returns by value
      // (one move per document, the API contract).
      const std::vector<ScoredPhrase> scored = index.TopPhrases(doc);
      std::vector<PhraseHash>& top = result.doc_top_phrases[d];
      top.reserve(scored.size());
      for (const ScoredPhrase& phrase : scored) {
        top.push_back(phrase.hash);
        // analyzer: allow(hot-loop-alloc) -- the chunk edge buffer grows
        // amortized across all documents in the chunk; a per-document
        // reserve would be quadratic in re-walked capacity.
        edges.push_back(CoarseEdge{doc.id, phrase.hash});
      }
    }
  });
  result.stats.top_phrase_seconds = timer.ElapsedSeconds();

  // Deterministic sort-and-union. Concatenating the chunk buffers in
  // chunk order already yields ascending document ids (chunks are
  // contiguous ranges); the stable sort re-asserts the canonical
  // (document, phrase-rank) order independently of how the buffers were
  // produced — stability preserves each document's phrase-rank order
  // because all of one document's edges sit in one buffer, appended in
  // TopPhrases order. The replay therefore consumes the exact edge
  // sequence the serial path does, so the degree cap, anchors, and
  // unions behave identically and the components come out byte-equal.
  timer.Restart();
  size_t total_edges = 0;
  for (const std::vector<CoarseEdge>& edges : chunk_edges) {
    total_edges += edges.size();
  }
  std::vector<CoarseEdge> all_edges;
  all_edges.reserve(total_edges);
  for (std::vector<CoarseEdge>& edges : chunk_edges) {
    all_edges.insert(all_edges.end(), edges.begin(), edges.end());
    edges.clear();
    edges.shrink_to_fit();
  }
  std::stable_sort(all_edges.begin(), all_edges.end(),
                   [](const CoarseEdge& a, const CoarseEdge& b) {
                     return a.doc < b.doc;
                   });
  result.num_edges = all_edges.size();
  UnionFind uf(n);
  CoarseEdgeAccumulator acc(options_.max_phrase_degree, &uf);
  for (const CoarseEdge& e : all_edges) {
    acc.Add(e.doc, e.phrase);
  }
  result.stats.graph_seconds = timer.ElapsedSeconds();

  timer.Restart();
  EmitCoarseComponents(uf, options_, &result);
  result.stats.components_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace infoshield
