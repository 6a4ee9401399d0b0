#include "incremental/incremental_infoshield.h"

#include <algorithm>
#include <utility>

#include "core/fine_memo.h"
#include "graph/bucket_run.h"
#include "mdl/cost_model.h"
#include "text/ngram.h"
#include "tfidf/df_run.h"
#include "tfidf/tfidf_index.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

IncrementalInfoShield::IncrementalInfoShield(
    InfoShieldOptions options, TokenizerOptions tokenizer_options)
    : options_(options), corpus_(tokenizer_options) {
  // result_ starts as the batch pipeline's output over an empty corpus:
  // no documents, no clusters, no templates.
}

// analyzer: hot
Result<IngestStats> IncrementalInfoShield::IngestBatch(
    const std::vector<std::string>& texts) {
  IngestStats stats;
  stats.total_docs = corpus_.size();
  stats.generation = generation_;
  if (texts.empty()) return stats;

  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  const size_t old_size = corpus_.size();
  const double old_lg_vocab = corpus_.vocab().BitsPerWord();

  Result<DocId> first_id = corpus_.TryAddBatch(texts, threads);
  INFOSHIELD_RETURN_IF_ERROR(first_id.status());
  const size_t new_size = corpus_.size();
  stats.batch_docs = new_size - old_size;
  stats.total_docs = new_size;

  // --- df delta: per-document-deduplicated phrase counts for the new
  // documents only, added into the every-phrase run. Additivity makes
  // the sum equal a from-scratch count over all new_size documents. The
  // delta keeps every phrase (min_df = 1): df 1 now can be 2 later.
  WallTimer timer;
  AddDfRun(CountDocumentFrequencies(corpus_, old_size, new_size,
                                    options_.coarse.tfidf.max_ngram, threads),
           &df_run_);
  stats.generation = ++generation_;
  stats.df_seconds = timer.ElapsedSeconds();

  // --- rescore every document's top phrases against the new counts.
  // N changed, so idf moved for every phrase and even untouched
  // documents can reorder their top list; the diff below confines the
  // expensive consequence (fine work) to documents that actually
  // changed.
  timer.Restart();
  std::vector<std::vector<PhraseHash>> new_top;
  {
    // By value: the index drops the phrases below min_df from its copy,
    // and df_run_ keeps them for later batches. The copy is freed before
    // the fine stage.
    TfidfIndex index;
    index.Build(df_run_, new_size, options_.coarse.tfidf);
    new_top = SelectTopPhrases(index, corpus_, threads);
  }
  stats.rescore_seconds = timer.ElapsedSeconds();

  // --- diff against the previous generation's top phrases, for
  // IngestStats only: nothing below depends on it. A document counts as
  // changed when its top-phrase SET changed: the graph is built from a
  // (key, doc)-sorted run and the fine stage sorts what it reads of a
  // document's phrases, so rank order reaches no output.
  timer.Restart();
  std::vector<PhraseHash> old_set;
  std::vector<PhraseHash> new_set;
  stats.changed_docs = new_size - old_size;
  for (size_t d = 0; d < old_size; ++d) {
    if (new_top[d] == doc_top_phrases_[d]) continue;
    old_set.assign(doc_top_phrases_[d].begin(), doc_top_phrases_[d].end());
    new_set.assign(new_top[d].begin(), new_top[d].end());
    std::sort(old_set.begin(), old_set.end());
    std::sort(new_set.begin(), new_set.end());
    if (old_set != new_set) ++stats.changed_docs;
  }
  doc_top_phrases_ = std::move(new_top);

  // --- graph: rebuilt from the bucket run of every document's top
  // phrases, the batch coarse stage's own graph step.
  stats.graph_rebuilt = true;
  CoarseResult components;
  EmitBucketComponents(BucketRun::Build(doc_top_phrases_, threads),
                       options_.coarse, &components);
  stats.num_coarse_clusters = components.clusters.size();
  stats.graph_seconds = timer.ElapsedSeconds();

  // --- fine stage over every component, at the current lg V. The memo
  // supplies the alignment work of every (seed, document) pair and
  // candidate set an earlier ingest already saw, so a component whose
  // claims and sets are unchanged costs only its MDL arithmetic, replayed
  // at the new lg V — exact by construction, whatever the vocabulary
  // did (DESIGN.md §15).
  timer.Restart();
  const CostModel cost_model = CostModel::ForVocabulary(corpus_.vocab());
  stats.vocab_grew = old_size > 0 && cost_model.lg_vocab() != old_lg_vocab;
  const size_t num_clusters = components.clusters.size();
  std::vector<const std::vector<DocId>*> clusters;
  clusters.reserve(num_clusters);
  for (const std::vector<DocId>& c : components.clusters) {
    clusters.push_back(&c);
  }
  std::vector<FineResult> fine_results =
      FineClustering(options_.fine)
          .RunOnClusters(corpus_, clusters, cost_model, &doc_top_phrases_,
                         options_.num_threads, &fine_memo_);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    const FineStageStats& fs = fine_results[ci].stats;
    const size_t work = fs.alignments_computed + fs.msa_sequences_added;
    stats.fine_alignments += work;
    if (work == 0) {
      ++stats.reused_clusters;
    } else {
      ++stats.dirty_clusters;
      stats.dirty_cluster_docs += components.clusters[ci].size();
    }
  }

  // --- assemble through the batch pipeline's own merge.
  InfoShieldResult result;
  AssembleResult(components, &fine_results, cost_model, new_size, &result);
  stats.fine_seconds = timer.ElapsedSeconds();
  result_ = std::move(result);
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
  return stats;
}

Status IncrementalInfoShield::ValidateInvariants() const {
  audit::Auditor a("IncrementalInfoShield");
  const size_t n = corpus_.size();
  AuditDfRun(df_run_, 1, n, &a);
  a.Expect(doc_top_phrases_.size() == n,
           StrFormat("doc_top_phrases has %zu entries for %zu documents",
                     doc_top_phrases_.size(), n));
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  INFOSHIELD_RETURN_IF_ERROR(fine_memo_.ValidateInvariants(n));
  return ValidateInfoShieldResult(result_, corpus_);
}

}  // namespace infoshield
