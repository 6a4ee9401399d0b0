// N-gram ("phrase") extraction and hashing.
//
// InfoShield-Coarse works over phrases of 1..max_n consecutive tokens
// (paper §IV-A1, n <= 5 by default). Phrases are identified by a 64-bit
// hash of their token-id sequence; collisions at 64 bits are negligible at
// the corpus sizes involved and, in the worst case, only make the coarse
// stage slightly more permissive — which InfoShield-Fine then corrects.

#ifndef INFOSHIELD_TEXT_NGRAM_H_
#define INFOSHIELD_TEXT_NGRAM_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/vocabulary.h"

namespace infoshield {

using PhraseHash = uint64_t;

// FNV-1a over the token-id bytes, seeded with the n-gram length so that
// e.g. the unigram (5) and the bigram (5,0) cannot collide trivially.
PhraseHash HashNgram(const TokenId* tokens, size_t n);

struct NgramSpan {
  PhraseHash hash;
  uint32_t begin;  // token offset in the document
  uint32_t n;      // gram length
};

// All n-grams of lengths 1..max_n in a document, in document order.
std::vector<NgramSpan> ExtractNgrams(const Document& doc, size_t max_n);

// Appends the hashes of a document's n-grams of lengths min_n..max_n
// (min_n >= 1) to `out`, in ExtractNgrams' order, without the spans: the
// counting loops reuse one buffer across documents.
void AppendNgramHashes(const Document& doc, size_t min_n, size_t max_n,
                       std::vector<PhraseHash>* out);

// Number of n-grams of lengths 1..max_n in a document of `len` tokens
// (the size of ExtractNgrams' result).
size_t NumNgrams(size_t len, size_t max_n);

}  // namespace infoshield

#endif  // INFOSHIELD_TEXT_NGRAM_H_
