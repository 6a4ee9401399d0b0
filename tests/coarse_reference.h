// The coarse stage as it was written before the bucket run (DESIGN.md
// §16), kept as the reference the production graph must reproduce: a
// single-threaded pass that replays every (document, key) edge in
// canonical doc-major order through hash-map anchors and degree
// counters. The tests, bench_coarse and the diff_coarse* fuzzers compare
// CoarseClustering::Run against it at every thread count.

#ifndef INFOSHIELD_TESTS_COARSE_REFERENCE_H_
#define INFOSHIELD_TESTS_COARSE_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/tfidf_index.h"
#include "util/timer.h"

namespace infoshield {
namespace reference {

// The anchor/degree/union pass over bipartite edges in canonical
// (document, key-rank) order. Instead of materializing key vertices,
// documents sharing a key are unioned directly: the first document seen
// with each key acts as the key's anchor. This yields exactly the
// connected components of the bipartite graph restricted to document
// vertices, provided edges are replayed in the canonical order (the
// degree cap drops the same edges only then).
class CoarseEdgeAccumulator {
 public:
  CoarseEdgeAccumulator(size_t max_phrase_degree, UnionFind* uf)
      : max_phrase_degree_(max_phrase_degree), uf_(uf) {}

  void Add(DocId doc, PhraseHash phrase) {
    if (max_phrase_degree_ > 0) {
      uint32_t d = ++degree_[phrase];
      if (d > max_phrase_degree_) return;
    }
    auto [it, inserted] = anchor_.emplace(phrase, doc);
    if (!inserted) uf_->Union(it->second, doc);
  }

 private:
  const size_t max_phrase_degree_;
  // analyzer: borrows(uf_) -- the UnionFind lives in the caller's frame,
  // which strictly encloses the accumulator that points at it.
  UnionFind* uf_;
  std::unordered_map<PhraseHash, DocId> anchor_;
  std::unordered_map<PhraseHash, uint32_t> degree_;
};

// The tf-idf backend's serial path: df index, per-document top phrases,
// then the canonical edge replay.
inline CoarseResult RunSerialTfidf(const Corpus& corpus,
                                   const CoarseOptions& options) {
  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;

  WallTimer timer;
  TfidfIndex index;
  index.Build(corpus, options.tfidf);
  result.stats.index_seconds = timer.ElapsedSeconds();

  // Top-phrase selection: pure per-document scoring against the frozen
  // df table.
  timer.Restart();
  result.doc_top_phrases.resize(n);
  for (const Document& doc : corpus.docs()) {
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
  CoarseEdgeAccumulator edges(options.max_phrase_degree, &uf);
  for (DocId d = 0; d < n; ++d) {
    for (PhraseHash phrase : result.doc_top_phrases[d]) {
      edges.Add(d, phrase);
    }
  }
  result.stats.graph_seconds = timer.ElapsedSeconds();

  timer.Restart();
  EmitCoarseComponents(uf, options, &result);
  result.stats.components_seconds = timer.ElapsedSeconds();
  return result;
}

// The MinHash/LSH backend's serial path: each document's band keys, in
// ascending-doc order, through the same replay.
inline CoarseResult RunSerialLsh(const Corpus& corpus,
                                 const CoarseOptions& options) {
  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;
  const MinHashFamily family(options.minhash);
  result.doc_top_phrases.resize(n);
  UnionFind uf(n);
  CoarseEdgeAccumulator edges(options.max_phrase_degree, &uf);
  for (const Document& doc : corpus.docs()) {
    result.doc_top_phrases[doc.id] =
        BandKeys(family.Signature(doc.tokens), options.lsh);
    for (const uint64_t key : result.doc_top_phrases[doc.id]) {
      ++result.num_edges;
      edges.Add(doc.id, key);
    }
  }
  EmitCoarseComponents(uf, options, &result);
  return result;
}

// The reference for options.backend.
inline CoarseResult RunSerial(const Corpus& corpus,
                              const CoarseOptions& options) {
  return options.backend == CoarseBackend::kMinhashLsh
             ? RunSerialLsh(corpus, options)
             : RunSerialTfidf(corpus, options);
}

}  // namespace reference
}  // namespace infoshield

#endif  // INFOSHIELD_TESTS_COARSE_REFERENCE_H_
