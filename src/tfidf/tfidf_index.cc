#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "tfidf/df_run.h"
#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

void TfidfIndex::Build(const Corpus& corpus, const TfidfOptions& options,
                       size_t num_threads) {
  options_ = options;
  num_documents_ = corpus.size();
  from_snapshot_ = false;
  snapshot_ = DfSnapshot();
  DfRun run = CountDocumentFrequencies(corpus, 0, corpus.size(),
                                       options_.max_ngram, num_threads);
  keys_ = std::move(run.keys);
  dfs_ = std::move(run.counts);

  // Directory over the top bits, one to two keys per bucket
  // (DESIGN.md §11 has the measured alternatives).
  const int bits =
      std::max(1, static_cast<int>(std::bit_width(keys_.size())) - 1);
  dir_shift_ = 64 - bits;
  dir_.assign((size_t{1} << bits) + 1, 0);
  size_t i = 0;
  for (size_t b = 0; b + 1 < dir_.size(); ++b) {
    dir_[b] = static_cast<uint32_t>(i);
    while (i < keys_.size() && (keys_[i] >> dir_shift_) == b) ++i;
  }
  dir_.back() = static_cast<uint32_t>(keys_.size());
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

void TfidfIndex::BuildFromSnapshot(const DfSnapshot& snapshot,
                                   const TfidfOptions& options) {
  options_ = options;
  num_documents_ = snapshot.num_documents();
  from_snapshot_ = true;
  snapshot_ = snapshot;
  keys_.clear();
  dfs_.clear();
  dir_.clear();
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

size_t TfidfIndex::DocumentFrequency(PhraseHash phrase) const {
  if (from_snapshot_) return snapshot_.DocumentFrequency(phrase);
  if (dir_.empty()) return 0;
  const size_t bucket = static_cast<size_t>(phrase >> dir_shift_);
  for (size_t i = dir_[bucket]; i < dir_[bucket + 1]; ++i) {
    if (keys_[i] == phrase) return dfs_[i];
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
  for (const NgramSpan& g : ExtractNgrams(doc, options_.max_ngram)) {
    if (g.n >= min_n) hashes.push_back(g.hash);
  }
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
  if (from_snapshot_) {
    a.Expect(keys_.empty(), "snapshot-backed index also owns df arrays");
    a.Expect(num_documents_ == snapshot_.num_documents(),
             StrFormat("index says %zu documents but its snapshot says %zu",
                       num_documents_, snapshot_.num_documents()));
    return a.Finish();
  }
  a.Expect(dfs_.size() == keys_.size(),
           StrFormat("%zu keys but %zu dfs", keys_.size(), dfs_.size()));
  for (size_t i = 0; i < keys_.size() && i < dfs_.size(); ++i) {
    if (i > 0 && keys_[i - 1] >= keys_[i]) {
      a.Expect(false, StrFormat("keys #%zu..#%zu not strictly ascending",
                                i - 1, i));
    }
    if (dfs_[i] < 1 || dfs_[i] > num_documents_) {
      a.Expect(false,
               StrFormat("phrase %llu has df %u outside [1, %zu]",
                         static_cast<unsigned long long>(keys_[i]), dfs_[i],
                         num_documents_));
    }
    if (DocumentFrequency(keys_[i]) != dfs_[i]) {
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
