#include "text/ngram.h"

#include <unordered_set>

#include <gtest/gtest.h>

namespace infoshield {
namespace {

Document MakeDoc(std::vector<TokenId> tokens) {
  Document d;
  d.tokens = std::move(tokens);
  return d;
}

TEST(HashNgramTest, DeterministicAndOrderSensitive) {
  TokenId a[] = {1, 2, 3};
  TokenId b[] = {3, 2, 1};
  EXPECT_EQ(HashNgram(a, 3), HashNgram(a, 3));
  EXPECT_NE(HashNgram(a, 3), HashNgram(b, 3));
}

TEST(HashNgramTest, LengthSeedingAvoidsPrefixCollision) {
  // (5) as a unigram must differ from (5, 0) as a bigram even though the
  // trailing token id is all-zero bytes.
  TokenId uni[] = {5};
  TokenId bi[] = {5, 0};
  EXPECT_NE(HashNgram(uni, 1), HashNgram(bi, 2));
}

TEST(ExtractNgramsTest, CountsMatchFormula) {
  // len=4, max_n=2 -> 4 unigrams + 3 bigrams.
  Document d = MakeDoc({10, 20, 30, 40});
  EXPECT_EQ(ExtractNgrams(d, 2).size(), 7u);
  // max_n=5 capped by length: 4+3+2+1 = 10.
  EXPECT_EQ(ExtractNgrams(d, 5).size(), 10u);
  EXPECT_EQ(NumNgrams(4, 2), 7u);
  EXPECT_EQ(NumNgrams(4, 5), 10u);
  EXPECT_EQ(NumNgrams(0, 5), 0u);
  EXPECT_EQ(NumNgrams(4, 0), 0u);
  // A wrapped (huge) max_n is capped by the length, not multiplied.
  EXPECT_EQ(NumNgrams(4, ~size_t{0}), 10u);
  EXPECT_EQ(ExtractNgrams(d, ~size_t{0}).size(), 10u);
}

TEST(ExtractNgramsTest, EmptyDocAndZeroN) {
  Document d = MakeDoc({});
  EXPECT_TRUE(ExtractNgrams(d, 5).empty());
  Document d2 = MakeDoc({1});
  EXPECT_TRUE(ExtractNgrams(d2, 0).empty());
}

TEST(ExtractNgramsTest, SpansAreCorrect) {
  Document d = MakeDoc({7, 8, 9});
  std::vector<NgramSpan> grams = ExtractNgrams(d, 3);
  // Document order: all grams starting at 0, then 1, then 2.
  EXPECT_EQ(grams[0].begin, 0u);
  EXPECT_EQ(grams[0].n, 1u);
  EXPECT_EQ(grams[1].n, 2u);
  EXPECT_EQ(grams[2].n, 3u);
  EXPECT_EQ(grams.back().begin, 2u);
  EXPECT_EQ(grams.back().n, 1u);
}

TEST(ExtractNgramsTest, SharedPhrasesHashEqually) {
  Document d1 = MakeDoc({1, 2, 3, 4});
  Document d2 = MakeDoc({9, 1, 2, 3});
  std::unordered_set<PhraseHash> h1;
  for (const auto& g : ExtractNgrams(d1, 3)) h1.insert(g.hash);
  // The trigram (1,2,3) appears in both documents.
  TokenId tri[] = {1, 2, 3};
  EXPECT_TRUE(h1.count(HashNgram(tri, 3)));
  bool found = false;
  for (const auto& g : ExtractNgrams(d2, 3)) {
    if (g.hash == HashNgram(tri, 3)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ExtractNgramsTest, NoDuplicateSpans) {
  Document d = MakeDoc({1, 1, 1});
  std::vector<NgramSpan> grams = ExtractNgrams(d, 2);
  // Hashes repeat (repeated tokens) but spans are distinct.
  std::unordered_set<uint64_t> spans;
  for (const auto& g : grams) {
    spans.insert((static_cast<uint64_t>(g.begin) << 32) | g.n);
  }
  EXPECT_EQ(spans.size(), grams.size());
}

}  // namespace
}  // namespace infoshield
