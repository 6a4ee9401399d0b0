// Harness (e5): differential fuzzing across coarse backends.
//
// The tf-idf graph backend and the MinHash/LSH backend are different
// candidate generators, but there is a regime where they MUST agree on
// the final partition: families of exact-duplicate documents over
// per-family disjoint vocabularies, plus noise documents over their own
// private vocabularies. Exact duplicates share every phrase (df >=
// family size, so tf-idf connects them) and have identical MinHash
// signatures (so every band bucket connects them); disjoint
// vocabularies mean no phrase and no shingle crosses family lines, so
// under both backends each family is one component and every noise
// document is a singleton. The harness decodes such a corpus from fuzz
// bytes (the fuzzer explores family count/size/length, noise, shingle
// length, and banding), runs both backends, and asserts identical
// clusters and singletons. It also asserts the LSH backend itself is
// byte-identical across the serial escape hatch and 1/4 worker threads,
// mirroring diff_coarse_fuzz's discipline for the tf-idf backend, and —
// under a bucket degree cap drawn from the input once the backends
// have been compared uncapped — that it matches the doc-major (doc,
// band key) replay through CoarseEdgeAccumulator that its bucket unions
// stand in for.

#include <cstdint>
#include <string>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "fuzz_util.h"
#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "text/corpus.h"
#include "util/logging.h"

namespace {

using infoshield::CoarseBackend;
using infoshield::CoarseClustering;
using infoshield::CoarseOptions;
using infoshield::CoarseResult;
using infoshield::Corpus;
using infoshield::Document;

// The partition both backends must agree on. doc_top_phrases and
// num_edges legitimately differ (top tf-idf phrases vs LSH band keys).
std::string PartitionString(const CoarseResult& result) {
  std::string out = "clusters:";
  for (const auto& cluster : result.clusters) {
    out.push_back('[');
    for (infoshield::DocId d : cluster) {
      out += std::to_string(d);
      out.push_back(',');
    }
    out.push_back(']');
  }
  out += ";singletons:";
  for (infoshield::DocId d : result.singletons) {
    out += std::to_string(d);
    out.push_back(',');
  }
  return out;
}

// Everything the LSH backend promises to reproduce across thread counts.
std::string Canonical(const CoarseResult& result) {
  std::string out = PartitionString(result);
  out += ";top_phrases:";
  for (const auto& phrases : result.doc_top_phrases) {
    out.push_back('[');
    for (infoshield::PhraseHash h : phrases) {
      out += std::to_string(h);
      out.push_back(',');
    }
    out.push_back(']');
  }
  out += ";edges:" + std::to_string(result.num_edges);
  return out;
}

// The partition and edge count of the canonical replay: every
// document's band keys, in ascending-doc order, through the anchor and
// degree maps of CoarseEdgeAccumulator.
std::string ReplayReference(const Corpus& corpus,
                            const CoarseOptions& options) {
  CoarseResult result;
  const infoshield::MinHashFamily family(options.minhash);
  infoshield::UnionFind uf(corpus.size());
  infoshield::CoarseEdgeAccumulator edges(options.max_phrase_degree, &uf);
  for (const Document& doc : corpus.docs()) {
    for (const uint64_t key :
         infoshield::BandKeys(family.Signature(doc.tokens), options.lsh)) {
      ++result.num_edges;
      edges.Add(doc.id, key);
    }
  }
  infoshield::EmitCoarseComponents(uf, options, &result);
  return PartitionString(result) + ";edges:" +
         std::to_string(result.num_edges);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);

  CoarseOptions options;
  options.minhash.num_hashes = 32;
  options.minhash.shingle_k = 1 + in.TakeBounded(3);
  // Valid (bands, rows) factorizations of num_hashes only — invalid
  // combinations are rejected up front by LshParams::Validate (covered
  // in lsh_test), never explored at run time.
  switch (in.TakeBounded(3)) {
    case 0:
      options.lsh = {/*bands=*/8, /*rows=*/4};
      break;
    case 1:
      options.lsh = {/*bands=*/16, /*rows=*/2};
      break;
    case 2:
      options.lsh = {/*bands=*/4, /*rows=*/8};
      break;
    default:
      options.lsh = {/*bands=*/32, /*rows=*/1};
      break;
  }

  // Exact-duplicate families over disjoint vocabularies (see header
  // comment): family f draws words only from "f<f>w0..15", noise doc j
  // only from "n<j>w0..7".
  std::vector<std::string> texts;
  const size_t num_families = 1 + in.TakeBounded(3);
  for (size_t f = 0; f < num_families; ++f) {
    const size_t len = 3 + in.TakeBounded(7);
    std::string base;
    for (size_t i = 0; i < len; ++i) {
      if (!base.empty()) base.push_back(' ');
      base += "f" + std::to_string(f) + "w" + std::to_string(in.TakeBounded(15));
    }
    const size_t family_docs = 2 + in.TakeBounded(3);
    for (size_t d = 0; d < family_docs; ++d) {
      texts.push_back(base);
    }
  }
  const size_t num_noise = in.TakeBounded(3);
  for (size_t j = 0; j < num_noise; ++j) {
    const size_t len = 1 + in.TakeBounded(7);
    std::string text;
    for (size_t i = 0; i < len; ++i) {
      if (!text.empty()) text.push_back(' ');
      text += "n" + std::to_string(j) + "w" + std::to_string(in.TakeBounded(7));
    }
    texts.push_back(text);
  }

  Corpus corpus;
  for (const std::string& text : texts) corpus.Add(text);

  options.backend = CoarseBackend::kTfidfGraph;
  options.use_serial_coarse = true;
  options.num_threads = 1;
  const std::string tfidf_partition =
      PartitionString(CoarseClustering(options).Run(corpus));

  options.backend = CoarseBackend::kMinhashLsh;
  const CoarseResult lsh_serial = CoarseClustering(options).Run(corpus);
  CHECK(PartitionString(lsh_serial) == tfidf_partition)
      << "backends disagree on an exact-duplicate family corpus of "
      << texts.size() << " docs (shingle_k=" << options.minhash.shingle_k
      << ", bands=" << options.lsh.bands << ")";

  // Drawn last, so inputs written before the cap existed decode to the
  // same corpus (and to no cap).
  options.max_phrase_degree = in.TakeBounded(4);
  const std::string replay = ReplayReference(corpus, options);
  const CoarseResult lsh_capped = CoarseClustering(options).Run(corpus);
  CHECK(PartitionString(lsh_capped) + ";edges:" +
            std::to_string(lsh_capped.num_edges) ==
        replay)
      << "LSH bucket unions diverged from the canonical edge replay at "
      << "max_phrase_degree=" << options.max_phrase_degree
      << " on a corpus of " << texts.size() << " docs";

  const std::string lsh_reference = Canonical(lsh_capped);
  options.use_serial_coarse = false;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    options.num_threads = threads;
    const std::string parallel =
        Canonical(CoarseClustering(options).Run(corpus));
    CHECK(parallel == lsh_reference)
        << "LSH backend diverged from its serial reference at " << threads
        << " thread(s) on a corpus of " << texts.size() << " docs";
  }
  return 0;
}
