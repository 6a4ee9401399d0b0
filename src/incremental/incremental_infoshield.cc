#include "incremental/incremental_infoshield.h"

#include <algorithm>
#include <utility>

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
  stats.generation = df_table_.generation();
  if (texts.empty()) return stats;

  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  const size_t old_size = corpus_.size();

  Result<DocId> first_id = corpus_.TryAddBatch(texts, threads);
  INFOSHIELD_RETURN_IF_ERROR(first_id.status());
  const size_t new_size = corpus_.size();
  stats.batch_docs = new_size - old_size;
  stats.total_docs = new_size;

  // --- df delta: per-document-deduplicated phrase counts for the new
  // documents only, folded into the snapshot table. Additivity makes the
  // folded table equal a from-scratch build over all new_size documents.
  // The delta keeps every phrase (min_df = 1): df 1 now can be 2 later.
  WallTimer timer;
  {
    DfRun delta =
        CountDocumentFrequencies(corpus_, old_size, new_size,
                                 options_.coarse.tfidf.max_ngram, threads);
    df_table_.ApplyBatch(&delta, new_size - old_size);
  }
  const uint64_t generation = df_table_.generation();
  stats.generation = generation;
  stats.df_seconds = timer.ElapsedSeconds();

  // --- rescore every document's top phrases against the new snapshot.
  // N changed, so idf moved for every phrase and even untouched
  // documents can reorder their top list; scoring is pure and per-
  // document, so it fans out, and the diff below confines the expensive
  // consequence (fine work) to documents that actually changed.
  timer.Restart();
  TfidfIndex index;
  index.BuildFromSnapshot(df_table_.Snapshot(), options_.coarse.tfidf);
  std::vector<std::vector<PhraseHash>> new_top(new_size);
  const size_t num_chunks = std::min(new_size, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * new_size / num_chunks;
    const size_t end = (chunk + 1) * new_size / num_chunks;
    for (size_t d = begin; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- TopPhrases returns its scored
      // list by value (one move per document, the API contract).
      const std::vector<ScoredPhrase> scored =
          index.TopPhrases(corpus_.docs()[d]);
      std::vector<PhraseHash>& top = new_top[d];
      top.reserve(scored.size());
      for (const ScoredPhrase& phrase : scored) {
        top.push_back(phrase.hash);
      }
    }
  });
  stats.rescore_seconds = timer.ElapsedSeconds();

  // --- diff against the previous generation's top phrases. A document
  // counts as changed when its top-phrase SET changed: the graph is built
  // from a (key, doc)-sorted run and the fine stage sorts what it reads
  // of a document's phrases, so rank order reaches no output.
  timer.Restart();
  std::vector<PhraseHash> old_set;
  std::vector<PhraseHash> new_set;
  doc_changed_gen_.resize(new_size, generation);
  stats.changed_docs = new_size - old_size;
  for (size_t d = 0; d < old_size; ++d) {
    if (new_top[d] == doc_top_phrases_[d]) continue;
    old_set.assign(doc_top_phrases_[d].begin(), doc_top_phrases_[d].end());
    new_set.assign(new_top[d].begin(), new_top[d].end());
    std::sort(old_set.begin(), old_set.end());
    std::sort(new_set.begin(), new_set.end());
    if (old_set == new_set) continue;
    doc_changed_gen_[d] = generation;
    ++stats.changed_docs;
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

  // --- fine stage over dirty components only.
  timer.Restart();
  const CostModel cost_model = CostModel::ForVocabulary(corpus_.vocab());
  if (cost_model.lg_vocab() != last_lg_vocab_) {
    // lg V enters every MDL cost comparison, so a vocabulary-size step
    // can flip accept/reject decisions in ANY cluster: drop everything.
    stats.vocab_grew = !fine_cache_.empty();
    fine_cache_.clear();
    last_lg_vocab_ = cost_model.lg_vocab();
  }

  const size_t num_clusters = components.clusters.size();
  std::vector<FineResult> fine_results(num_clusters);
  std::vector<uint64_t> result_generation(num_clusters, generation);
  std::vector<size_t> dirty;
  dirty.reserve(num_clusters);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    const std::vector<DocId>& members = components.clusters[ci];
    auto it = fine_cache_.find(members.front());
    bool reusable = it != fine_cache_.end() && it->second.members == members;
    if (reusable) {
      for (DocId d : members) {
        if (doc_changed_gen_[d] > it->second.generation) {
          reusable = false;
          break;
        }
      }
    }
    if (reusable) {
      fine_results[ci] = it->second.result;
      result_generation[ci] = it->second.generation;
      ++stats.reused_clusters;
    } else {
      dirty.push_back(ci);
      ++stats.dirty_clusters;
      stats.dirty_cluster_docs += members.size();
    }
  }
  std::vector<const std::vector<DocId>*> dirty_clusters;
  dirty_clusters.reserve(dirty.size());
  for (size_t ci : dirty) dirty_clusters.push_back(&components.clusters[ci]);
  std::vector<FineResult> dirty_results =
      FineClustering(options_.fine)
          .RunOnClusters(corpus_, dirty_clusters, cost_model,
                         &doc_top_phrases_, options_.num_threads);
  for (size_t i = 0; i < dirty.size(); ++i) {
    fine_results[dirty[i]] = std::move(dirty_results[i]);
  }

  // Refresh the cache: every current cluster is stored with the
  // generation its result was computed at (carried over for reused
  // entries so the dirtiness predicate keeps working); vanished
  // clusters drop out.
  fine_cache_.clear();
  fine_cache_.reserve(num_clusters);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    CachedFine entry;
    entry.members = components.clusters[ci];
    entry.result = fine_results[ci];
    entry.generation = result_generation[ci];
    fine_cache_.emplace(entry.members.front(), std::move(entry));
  }

  // --- assemble, replicating InfoShield::Run's merge loop so the
  // result is field-for-field what the batch pipeline would build.
  InfoShieldResult result;
  result.doc_template.assign(corpus_.size(), -1);
  result.num_coarse_clusters = components.clusters.size();
  result.num_singletons = components.singletons.size();
  result.cluster_stats.reserve(num_clusters);
  size_t total_templates = 0;
  for (const FineResult& fr : fine_results) {
    total_templates += fr.templates.size();
  }
  result.templates.reserve(total_templates);
  result.template_coarse_cluster.reserve(total_templates);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    FineResult& fr = fine_results[ci];
    result.fine_stats.MergeFrom(fr.stats);

    ClusterStats cluster_stats;
    cluster_stats.coarse_cluster_index = ci;
    cluster_stats.num_docs = components.clusters[ci].size();
    cluster_stats.num_templates = fr.templates.size();
    cluster_stats.cost_before = fr.cost_before;
    cluster_stats.cost_after = fr.cost_after;
    cluster_stats.relative_length = fr.relative_length();
    cluster_stats.lower_bound = RelativeLengthLowerBound(
        std::max<size_t>(fr.templates.size(), 1), cluster_stats.num_docs,
        cost_model.lg_vocab());
    result.cluster_stats.push_back(cluster_stats);

    for (TemplateCluster& tc : fr.templates) {
      const int64_t template_index =
          static_cast<int64_t>(result.templates.size());
      for (DocId d : tc.members) {
        result.doc_template[d] = template_index;
      }
      result.templates.push_back(std::move(tc));
      result.template_coarse_cluster.push_back(ci);
    }
  }
  stats.fine_seconds = timer.ElapsedSeconds();
  result_ = std::move(result);
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
  return stats;
}

Status IncrementalInfoShield::ValidateInvariants() const {
  INFOSHIELD_RETURN_IF_ERROR(df_table_.ValidateInvariants());
  audit::Auditor a("IncrementalInfoShield");
  const size_t n = corpus_.size();
  a.Expect(doc_top_phrases_.size() == n,
           StrFormat("doc_top_phrases has %zu entries for %zu documents",
                     doc_top_phrases_.size(), n));
  a.Expect(doc_changed_gen_.size() == n,
           StrFormat("doc_changed_gen has %zu entries for %zu documents",
                     doc_changed_gen_.size(), n));
  a.Expect(df_table_.num_documents() == n,
           StrFormat("df table counts %zu documents but the corpus holds "
                     "%zu",
                     df_table_.num_documents(), n));
  const uint64_t generation = df_table_.generation();
  for (size_t d = 0; d < doc_changed_gen_.size(); ++d) {
    if (doc_changed_gen_[d] > generation) {
      a.Expect(false,
               StrFormat("document %zu changed at generation %llu, beyond "
                         "the table's %llu",
                         d,
                         static_cast<unsigned long long>(doc_changed_gen_[d]),
                         static_cast<unsigned long long>(generation)));
    }
  }
  // determinism: validation only; each entry is checked independently.
  for (const auto& [key, entry] : fine_cache_) {
    a.Expect(!entry.members.empty() && entry.members.front() == key,
             StrFormat("cache entry %u does not start with its key", key));
    for (DocId d : entry.members) {
      if (d >= n) {
        a.Expect(false,
                 StrFormat("cache entry %u holds out-of-corpus member %u",
                           key, d));
      }
    }
    a.Expect(entry.generation <= generation,
             StrFormat("cache entry %u computed at generation %llu, beyond "
                       "the table's %llu",
                       key,
                       static_cast<unsigned long long>(entry.generation),
                       static_cast<unsigned long long>(generation)));
  }
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  return ValidateInfoShieldResult(result_, corpus_);
}

}  // namespace infoshield
