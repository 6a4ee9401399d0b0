// Corpus-wide n-gram tf-idf index (paper §IV-A1).
//
// For each (phrase, document) pair, tf-idf = tf * log(N / df). For each
// document, the phrases with the highest tf-idf scores are its "top
// phrases"; the number selected is a fraction of the number of distinct
// phrases in the document (top 10% per Lemma 2's proof), so long and short
// documents are treated uniformly and the method stays domain-independent.
//
// Phrases occurring in only one document are skipped when selecting top
// phrases for clustering: a df-1 phrase cannot connect two documents, so
// skipping it changes no coarse component while keeping the bipartite
// graph small. (The paper's tf-idf already down-weights nothing here —
// df-1 phrases have the *highest* idf — so this is purely the graph-side
// optimization, applied after scoring.)

#ifndef INFOSHIELD_TFIDF_TFIDF_INDEX_H_
#define INFOSHIELD_TFIDF_TFIDF_INDEX_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/df_run.h"
#include "util/status.h"

namespace infoshield {

struct TfidfOptions {
  // Maximum n-gram length (paper: 5; Fig. 4 sweeps 1..8).
  size_t max_ngram = 5;
  // Minimum n-gram length for a phrase to be eligible as a top phrase
  // (clamped to max_ngram internally). A single shared word is weak
  // near-duplicate evidence — any two documents in a large corpus share
  // some rare word, which would percolate the coarse graph into one
  // giant component; a shared phrase of two or more words is the actual
  // signature the paper's "phrases" refer to. Document frequencies are
  // still tracked for all lengths >= 1.
  size_t min_ngram = 2;
  // Fraction of a document's distinct phrases kept as top phrases.
  double top_fraction = 0.10;
  // Every document keeps at least this many top phrases (if it has any
  // eligible phrase at all).
  size_t min_phrases_per_doc = 1;
  // Drop phrases whose document frequency is below this when selecting
  // top phrases (2 = skip phrases that cannot connect documents). Build
  // does not store them either.
  size_t min_df = 2;
};

struct ScoredPhrase {
  PhraseHash hash;
  double score;
};

class TfidfIndex {
 public:
  TfidfIndex() = default;

  // Scans the corpus and builds the document-frequency table
  // (df_run.h): one contiguous document chunk per thread (0 = hardware
  // concurrency) buckets its hashes by top bits, and the buckets are
  // counted, with min_df, into flat sorted arrays that move into the
  // run build below. The table is identical for any thread count.
  void Build(const Corpus& corpus, const TfidfOptions& options,
             size_t num_threads = 1);

  // Builds the index from the df run of `num_documents` documents: keeps
  // only the phrases with df >= max(min_df, 1), the only ones TopPhrases
  // can select, and indexes them. The incremental engine passes a copy
  // of its every-phrase run; because df counts add up, the index equals
  // Build over the same documents.
  void Build(DfRun counts, size_t num_documents, const TfidfOptions& options);

  // Document frequency of a phrase: 0 if unseen, and also 0 if its df is
  // below options().min_df (the index does not keep it).
  size_t DocumentFrequency(PhraseHash phrase) const;

  // The top phrases of one document by tf-idf, best first.
  std::vector<ScoredPhrase> TopPhrases(const Document& doc) const;

  // tf-idf score of a phrase occurring `tf` times in one document (0
  // where DocumentFrequency reads 0).
  double Score(PhraseHash phrase, size_t tf) const;

  size_t num_documents() const { return num_documents_; }
  // The number of phrases the index keeps: those with df >= min_df.
  size_t num_phrases() const { return run_.keys.size(); }
  const TfidfOptions& options() const { return options_; }

  // Deep invariant audit (util/audit.h): the kept run's keys ascend,
  // every stored document frequency lies in [max(min_df, 1),
  // num_documents] and is reachable through the directory, and the
  // stored options are sane. Returns OK or an Internal status listing
  // every violation.
  Status ValidateInvariants() const;

 private:
  friend class TfidfIndexTestPeer;

  // tf-idf for a phrase whose df lookup the caller already did —
  // TopPhrases' inner loop needs the df twice (min_df filter, then the
  // score) and must not pay the hash lookup twice.
  double ScoreWithDf(size_t df, size_t tf) const;

  TfidfOptions options_;
  size_t num_documents_ = 0;
  // The kept phrases and their dfs. dir_[b] is the first index whose
  // key's top bits (key >> dir_shift_) are >= b, so a lookup scans only
  // the one to two keys of its bucket.
  DfRun run_;
  std::vector<uint32_t> dir_;
  int dir_shift_ = 64;
};

// Audits a TopPhrases result: scores are finite, the list is sorted by
// score descending (hash ascending on ties) and contains no duplicate
// phrase hash.
Status ValidateTopPhrases(const std::vector<ScoredPhrase>& phrases);

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_TFIDF_INDEX_H_
