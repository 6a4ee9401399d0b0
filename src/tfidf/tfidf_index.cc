#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

void TfidfIndex::Build(const Corpus& corpus, const TfidfOptions& options,
                       size_t num_threads) {
  Build(CountDocumentFrequencies(corpus, 0, corpus.size(), options.max_ngram,
                                 num_threads,
                                 std::max<size_t>(options.min_df, 1)),
        corpus.size(), options);
}

void TfidfIndex::Build(DfRun counts, size_t num_documents,
                       const TfidfOptions& options) {
  options_ = options;
  num_documents_ = num_documents;
  run_ = std::move(counts);
  // TopPhrases rejects every phrase with df < min_df, so the index keeps
  // only the others: a pruned phrase reads df 0, rejected the same way.
  const size_t min_df = std::max<size_t>(options_.min_df, 1);
  size_t kept = 0;
  for (size_t i = 0; i < run_.keys.size(); ++i) {
    if (run_.counts[i] < min_df) continue;
    run_.keys[kept] = run_.keys[i];
    run_.counts[kept++] = run_.counts[i];
  }
  run_.keys.resize(kept);
  run_.counts.resize(kept);

  // Directory over the top bits, one to two keys per bucket
  // (DESIGN.md §11 has the measured alternatives).
  const std::vector<PhraseHash>& keys = run_.keys;
  const int bits =
      std::max(1, static_cast<int>(std::bit_width(keys.size())) - 1);
  dir_shift_ = 64 - bits;
  dir_.assign((size_t{1} << bits) + 1, 0);
  size_t i = 0;
  for (size_t b = 0; b + 1 < dir_.size(); ++b) {
    dir_[b] = static_cast<uint32_t>(i);
    while (i < keys.size() && (keys[i] >> dir_shift_) == b) ++i;
  }
  dir_.back() = static_cast<uint32_t>(keys.size());
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

size_t TfidfIndex::DocumentFrequency(PhraseHash phrase) const {
  if (dir_.empty()) return 0;
  const size_t bucket = static_cast<size_t>(phrase >> dir_shift_);
  for (size_t i = dir_[bucket]; i < dir_[bucket + 1]; ++i) {
    if (run_.keys[i] == phrase) return run_.counts[i];
  }
  return 0;
}

double TfidfIndex::ScoreWithDf(size_t df, size_t tf) const {
  if (df == 0 || num_documents_ == 0) return 0.0;
  double idf =
      std::log(static_cast<double>(num_documents_) / static_cast<double>(df));
  return static_cast<double>(tf) * idf;
}

double TfidfIndex::Score(PhraseHash phrase, size_t tf) const {
  return ScoreWithDf(DocumentFrequency(phrase), tf);
}

// analyzer: hot
std::vector<ScoredPhrase> TfidfIndex::TopPhrases(const Document& doc) const {
  const size_t min_n =
      std::max<size_t>(std::min(options_.min_ngram, options_.max_ngram), 1);
  // Sorting the document's eligible phrase hashes puts equal phrases
  // side by side; each run's length is its term frequency.
  const size_t len = doc.tokens.size();
  std::vector<PhraseHash> hashes;
  hashes.reserve(NumNgrams(len, options_.max_ngram) -
                 NumNgrams(len, min_n - 1));
  AppendNgramHashes(doc, min_n, options_.max_ngram, &hashes);
  std::sort(hashes.begin(), hashes.end());

  std::vector<ScoredPhrase> scored;
  scored.reserve(hashes.size());
  // One df lookup per phrase: the min_df filter and the score share it
  // (Score(hash, tf) would redo the lookup).
  for (size_t i = 0; i < hashes.size();) {
    size_t j = i + 1;
    while (j < hashes.size() && hashes[j] == hashes[i]) ++j;
    const size_t df = DocumentFrequency(hashes[i]);
    if (df >= options_.min_df) {
      scored.push_back(ScoredPhrase{hashes[i], ScoreWithDf(df, j - i)});
    }
    i = j;
  }

  // top_fraction applies to the phrases actually eligible after the
  // min_df filter; counting the pre-filter distinct phrases would
  // inflate `keep` and defeat the fraction whenever min_df drops many
  // phrases (with min_df == 1 the two counts coincide).
  size_t keep = static_cast<size_t>(
      std::ceil(options_.top_fraction * static_cast<double>(scored.size())));
  keep = std::max(keep, options_.min_phrases_per_doc);
  keep = std::min(keep, scored.size());

  // Deterministic order: score desc, hash asc as tie-break. Hashes are
  // distinct, so the order is total and the kept prefix is unique.
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const ScoredPhrase& a, const ScoredPhrase& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.hash < b.hash;
                    });
  scored.resize(keep);
  INFOSHIELD_AUDIT_INVARIANTS(ValidateTopPhrases(scored));
  return scored;
}

Status TfidfIndex::ValidateInvariants() const {
  audit::Auditor a("TfidfIndex");
  a.Expect(options_.top_fraction >= 0.0 && options_.top_fraction <= 1.0,
           StrFormat("top_fraction %.3f outside [0, 1]",
                     options_.top_fraction));
  a.Expect(options_.max_ngram >= 1, "max_ngram is 0");
  AuditDfRun(run_, std::max<size_t>(options_.min_df, 1), num_documents_,
             &a);
  for (size_t i = 0; i < run_.keys.size() && i < run_.counts.size(); ++i) {
    if (DocumentFrequency(run_.keys[i]) != run_.counts[i]) {
      a.Expect(false, StrFormat("phrase #%zu unreachable through the "
                                "directory", i));
    }
  }
  return a.Finish();
}

Status ValidateTopPhrases(const std::vector<ScoredPhrase>& phrases) {
  audit::Auditor a("TopPhrases");
  for (size_t i = 0; i < phrases.size(); ++i) {
    a.Expect(std::isfinite(phrases[i].score),
             StrFormat("phrase #%zu has non-finite score", i));
    if (i == 0) continue;
    const ScoredPhrase& prev = phrases[i - 1];
    const ScoredPhrase& cur = phrases[i];
    a.Expect(prev.score > cur.score ||
                 (prev.score == cur.score && prev.hash < cur.hash),
             StrFormat("phrases #%zu..#%zu out of order or duplicated",
                       i - 1, i));
  }
  return a.Finish();
}

}  // namespace infoshield
