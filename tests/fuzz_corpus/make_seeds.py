#!/usr/bin/env python3
"""Regenerates the seed corpora under tests/fuzz_corpus/<harness>/.

Each seed is a byte string crafted against the harness's FuzzInput
decoding (fuzz/fuzz_util.h): TakeByte() consumes one byte, TakeUint64()
eight little-endian bytes, TakeBounded(max) is TakeUint64() % (max + 1).
The helpers below mirror that, so seeds land on interesting structures
(template families, quoted CSV, boundary integers) instead of noise.

Deterministic: running it twice produces identical files. Run from
anywhere; paths resolve relative to this file. Existing files not named
by a seed (e.g. minimized crashers checked in after a fuzzing run) are
left alone.
"""

import os
import struct

ROOT = os.path.dirname(os.path.abspath(__file__))


def u64(value):
    return struct.pack("<Q", value)


def bounded(value, maximum):
    """Bytes that make TakeBounded(maximum) yield exactly `value`."""
    assert 0 <= value <= maximum, (value, maximum)
    return u64(value)


def byte(value):
    return bytes([value & 0xFF])


def write(harness, name, payload):
    directory = os.path.join(ROOT, harness)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "wb") as f:
        f.write(payload)


# --- tokenizer: options byte + raw text ------------------------------
ALL_OPTIONS = byte(0x07)  # lowercase + strip punctuation + keep digits
write("tokenizer", "ascii_mixed_case", ALL_OPTIONS + b"Hello WORLD foo123 bar!")
write("tokenizer", "utf8_multilingual",
      ALL_OPTIONS + "café münchen 東京 30€".encode())
write("tokenizer", "url_preserved",
      ALL_OPTIONS + b"visit http://x.example/a?b=c&d=e now")
write("tokenizer", "malformed_sequences",
      ALL_OPTIONS + b"ok \xc3( \xed\xa0\x80 \xc0\x80 \xf5\x80\x80\x80 end")
write("tokenizer", "no_options_whitespace",
      byte(0x00) + b"  Tabs\tand\nnewlines  MiXeD 99 !!!")

# --- csv: mode byte + separator byte + payload -----------------------
write("csv", "quoted_fields",
      byte(0) + byte(0) + b'a,b,"c,d","e""f",')
write("csv", "constructed_fields",
      byte(1) + byte(0) + b"alpha\x00be\"ta\x00ga,mma\x00de\nlta\x00")
write("csv", "stream_crlf_multiline",
      byte(2) + byte(0) + b'h1,h2\r\n"multi\nline",x\r\ny,z\r\n')
write("csv", "semicolon_empty_fields",
      byte(0) + byte(1) + b';;a;;"q;q";')
write("csv", "tab_stream_trailing_newline",
      byte(2) + byte(2) + b"a\tb\nc\td\n\n")

# --- universal_code: count + values + noise + summary ----------------
values = [0, 1, 2, 3, 255, 256, (1 << 32) - 1, (1 << 63), (1 << 64) - 2]
payload = bounded(len(values), 24)
for v in values:
    payload += u64(v)
payload += bounded(17, 96)          # 17 noise bits
payload += bytes([1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1])
payload += bounded(11, 31)          # lg_vocab - 1
payload += bounded(40, 512)         # alignment_length
payload += bounded(12, 40)          # unmatched
payload += bounded(7, 12)           # inserted_or_substituted
payload += bounded(3, 8)            # slots
payload += bounded(0, 64) + bounded(2, 64) + bounded(64, 64)
payload += bounded(41, 1023)        # num_templates - 1
write("universal_code", "boundary_values", payload)
write("universal_code", "empty_stream", bounded(0, 24))

# --- pairwise: scoring + two token sequences + slot mask + lgV -------
def token_seq(tokens):
    out = bounded(len(tokens), 48)
    for t in tokens:
        out += bounded(t, 15)
    return out

payload = bounded(0, 3)  # default scoring (enables EncodeDocument diff)
payload += token_seq([1, 2, 3, 4, 5, 6, 7, 8])
payload += token_seq([1, 2, 9, 4, 5, 10, 7, 8, 11])
payload += bytes([1, 0, 0, 1, 0, 0, 0, 0, 1])  # slot mask bits
payload += bounded(8, 12)                       # lg_vocab - 4
write("pairwise", "near_duplicates", payload)

payload = bounded(1, 3)  # non-default scoring
payload += token_seq([0] * 12)
payload += token_seq([0, 0, 1, 0, 0])
payload += bytes([0] * 13)
payload += bounded(3, 12)
write("pairwise", "runs_and_gaps", payload)

payload = bounded(0, 3) + token_seq([]) + token_seq([5, 5, 5])
payload += bytes([1]) + bounded(0, 12)
write("pairwise", "empty_reference", payload)

# --- poa: sequence count + sequences ---------------------------------
def poa_seqs(seqs):
    out = bounded(len(seqs) - 1, 7)
    for seq in seqs:
        out += bounded(len(seq), 24)
        for t in seq:
            out += bounded(t, 11)
    return out

write("poa", "three_variants",
      poa_seqs([[1, 2, 3, 4, 5], [1, 2, 6, 4, 5], [1, 2, 3, 7, 5, 8]]))
write("poa", "disjoint_and_empty",
      poa_seqs([[1, 1, 2], [], [3, 4, 5, 6]]))
write("poa", "single_long",
      poa_seqs([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2]]))

# --- diff_fine / diff_coarse: option byte + synthetic families -------
def family(base, docs):
    """One template family: base phrase + per-doc mutation bytes."""
    out = bounded(len(base) - 3, 9)
    for w in base:
        out += bounded(w, 15)
    out += bounded(len(docs) - 2, 3)
    for mutations in docs:
        assert len(mutations) >= len(base)
        out += bytes(mutations[:len(base)])
    return out

def synthetic(option_bits, families, noise_docs):
    out = byte(option_bits)
    out += bounded(len(families) - 1, 2)
    for base, docs in families:
        out += family(base, docs)
    out += bounded(len(noise_docs), 3)
    for words in noise_docs:
        out += bounded(len(words) - 1, 7)
        for selector, word in words:
            out += byte(selector) + bounded(word, 9 if selector & 1 else 15)
    return out

CLEAN = [0x00] * 12          # copy base verbatim
SUBST = [0x00, 0x02, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
         0x00]               # substitute two positions
DELINS = [0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
          0x00]              # one delete, one insert, one more delete

# Mutation bytes are followed inline by substituted/inserted word ids;
# interleave them where the decoder expects them.
def docs_with_words(base_len, mutations, extra_words):
    stream = []
    extras = list(extra_words)
    for m in mutations[:base_len]:
        stream.append(m)
    return stream, extras

# For seed simplicity, use mutation bytes that need no extra words
# (0x00 copy, 0x01 delete) plus explicit streams for subst/insert.
two_families = [
    ([1, 2, 3, 4, 5, 6], [[0] * 6, [0] * 6, [0, 1, 0, 0, 0, 0]]),
    ([7, 8, 9, 10, 11, 12, 13], [[0] * 7, [0, 0, 1, 0, 0, 0, 0]]),
]
noise = [[(0x01, 3), (0x00, 5)], [(0x01, 7)]]

write("diff_fine", "two_families", synthetic(0x00, two_families, noise))
write("diff_fine", "profile_backend", synthetic(0x02, two_families, []))
write("diff_fine", "exhaustive_search",
      synthetic(0x01, [([2, 4, 6, 8, 10], [[0] * 5, [0] * 5])], noise))

# The seeds above are too small for any template to pay for itself, so
# they never reach a slot decision. This one does: one family of five
# twelve-word documents where only one or two documents edit a given
# position, so the slot decisions at those gaps are close calls that
# any perturbation of the slot costing flips. Each mutation byte is
# followed by the word ids its edit consumes: 0x02 substitutes, 0x10
# inserts after.
def edited_family(base, docs):
    out = bounded(len(base) - 3, 9)
    for w in base:
        out += bounded(w, 15)
    out += bounded(len(docs) - 2, 3)
    for edits in docs:
        for i in range(len(base)):
            mutation, words = edits.get(i, (0x00, []))
            out += byte(mutation)
            for word in words:
                out += bounded(word, 15)
    return out

write("diff_fine", "marginal_slots",
      byte(0x00) + bounded(0, 2)
      + edited_family([15, 6, 2, 3, 8, 7, 0, 2, 7, 7, 9, 3],
                      [{}, {3: (0x02, [11])},
                       {3: (0x02, [12]), 10: (0x02, [11])},
                       {5: (0x10, [4])}, {}])
      + bounded(0, 3))

write("diff_coarse", "two_families", synthetic(0x00, two_families, noise))
write("diff_coarse", "unigrams_and_degree_cap",
      synthetic(0x05, two_families, noise))
write("diff_coarse", "min_cluster_three",
      synthetic(0x08, [([1, 3, 5, 7, 9, 11], [[0] * 6, [0] * 6, [0] * 6])],
                []))

# --- diff_coarse_backend: params + exact-duplicate families ----------
# Decode order: shingle_k-1, band choice, num_families-1, then per
# family (len-3, len word ids, extra copies), then num_noise and per
# noise doc (len-1, len word ids). Families are exact duplicates over
# disjoint vocabularies, the regime where both backends must agree.
def backend_corpus(shingle_k, band_choice, families, noise):
    out = bounded(shingle_k - 1, 3) + bounded(band_choice, 3)
    out += bounded(len(families) - 1, 3)
    for words, extra_copies in families:
        out += bounded(len(words) - 3, 7)
        for w in words:
            out += bounded(w, 15)
        out += bounded(extra_copies, 3)
    out += bounded(len(noise), 3)
    for words in noise:
        out += bounded(len(words) - 1, 7)
        for w in words:
            out += bounded(w, 7)
    return out

write("diff_coarse_backend", "two_families_k3",
      backend_corpus(3, 0,
                     [([1, 2, 3, 4, 5, 6], 1), ([7, 8, 9, 10, 11], 2)],
                     [[1, 2], [3]]))
write("diff_coarse_backend", "short_docs_rows8",
      backend_corpus(2, 2, [([0, 1, 2], 0)], [[5, 5, 5, 5]]))
write("diff_coarse_backend", "unigram_shingles_four_families",
      backend_corpus(1, 3,
                     [([3, 3, 4], 3), ([6, 7, 8, 9], 2),
                      ([10, 11, 12, 13, 14, 15, 0, 1], 0), ([2, 4, 6], 1)],
                     []))
write("diff_coarse_backend", "repeated_words_k4",
      backend_corpus(4, 1, [([5, 5, 5, 5, 5, 5, 5], 3)], [[0], [1, 1]]))

# --- diff_incremental: option byte + families + batch cut points -----
# After the synthetic corpus, the harness decodes ascending batch cut
# increments with TakeBounded(docs_remaining); exhausted input implies
# "everything left in one final batch". two_families + noise decodes to
# 7 documents.
write("diff_incremental", "two_families_three_batches",
      synthetic(0x00, two_families, noise) + u64(3) + u64(2))
write("diff_incremental", "threaded_with_degree_cap",
      synthetic(0x14, two_families, noise) + u64(1) + u64(1) + u64(1))
write("diff_incremental", "unigram_vocab_growth",
      synthetic(0x03, two_families, noise) + u64(2) + u64(0) + u64(4))
# Option bit 0x20 adds a stream tail after the split: per batch a kind
# byte (bit 0: append a never-seen word to each copy, else repeat texts
# verbatim), TakeBounded(2) extra copies, then one TakeBounded(docs - 1)
# source index per copy. Here: two cuts, then new words, N only, new
# words again.
write("diff_incremental", "stream_tail_new_words_and_repeats",
      synthetic(0x20, two_families, noise) + u64(4) + u64(3)
      + byte(1) + bounded(1, 2) + bounded(0, 6) + bounded(5, 6)
      + byte(0) + bounded(2, 2) + bounded(1, 8) + bounded(2, 8)
      + bounded(8, 8)
      + byte(1) + bounded(0, 2) + bounded(3, 11))

print("seed corpora regenerated under", ROOT)
