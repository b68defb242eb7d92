"""Seeded corpora for the benchmark workloads.

The generator belongs to the benchmark, so edits to ``kpex.synthetic`` cannot
change what is measured. It uses only the standard library: the same seed
gives byte-identical JSONL on any machine with the same Python.

Tokens are drawn from a Zipf law over a fixed vocabulary of made-up content
words (the seed decides which word holds which rank), mixed with English
function words and punctuation, so phrases repeat the way they do on real
pages. Each document of at least five tokens carries one planted multi-token
keyphrase from a small per-seed pool, repeated one to three times inside the
first 256 tokens and rendered in a larger, bolder font than its
surroundings. Every token gets a full row of 18 visual features.

Document lengths are a fixed, seed-independent profile per workload: evenly
spaced quantiles, in an order fixed per workload. A run-to-run difference in
throughput then comes from the program and the machine, not from one seed
drawing longer documents than another. The order matters to training: kpex
picks its validation documents by position, so with a fixed order and a
fixed training seed every corpus seed validates and batches the same lengths.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass

VISUAL_DIM = 18
MAX_SPAN = 5
TRUNCATE_AT = 256
CHUNK_LEN = 256

CONTENT_VOCAB = 4000
ZIPF_EXPONENT = 1.07
FUNCTION_SHARE = 0.3
PUNCT_SHARE = 0.05
PHRASE_POOL = 40

# English function words, all in kpex's default stopword list. Content words
# are made up and never stopwords, so a phrase boundary can be checked against
# the generator's own vocabulary.
FUNCTION_WORDS = (
    "the of and to in a is for on with that by this as at from or an be are "
    "it was which its has have not but all can more their will".split()
)
PUNCTUATION = (",", ".", ":", ";", "(", ")", "-", "!")

_SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]
# made-up words that happen to be English stopwords
_RESERVED = frozenset(("have", "here", "more"))


def content_words(count):
    """``count`` distinct made-up words of two consonant-vowel syllables."""
    words = []
    n = len(_SYLLABLES)  # base-80 digits of n, so every word has two or more
    while len(words) < count:
        digits = []
        m = n
        while m:
            digits.append(_SYLLABLES[m % 80])
            m //= 80
        word = "".join(reversed(digits))
        if word not in _RESERVED:
            words.append(word)
        n += 1
    return words


def vocabulary():
    """Every token the generator can emit, sorted."""
    return sorted({*content_words(CONTENT_VOCAB), *FUNCTION_WORDS, *PUNCTUATION})


@dataclass(frozen=True)
class Profile:
    """How one workload's corpus is shaped."""

    n_docs: int
    lengths: tuple  # (low, high) token counts of the evenly spaced profile
    short_share: float = 0.0  # share of documents with 1..MAX_SPAN-1 tokens
    labeled: bool = False


PROFILES = {
    # 64..320 tokens: a quarter of the documents is truncated at 256.
    "train_mixed": Profile(n_docs=48, lengths=(64, 320), labeled=True),
    # 1..256 tokens, one in ten shorter than the widest span.
    "predict_page": Profile(n_docs=120, lengths=(5, 256), short_share=0.1),
    # 704 and 1088 tokens: 3 and 5 chunks of 256, the last one partial.
    # Dedup is quadratic in the phrase count; longer pages would leave time
    # for one dedup call per run, and one call is too noisy to compare.
    "predict_long": Profile(n_docs=2, lengths=(512, 1280)),
}


def profile_lengths(workload):
    """Evenly spaced lengths over the profile's range, in an order fixed per workload."""
    profile = PROFILES[workload]
    n_short = round(profile.n_docs * profile.short_share)
    n_long = profile.n_docs - n_short
    low, high = profile.lengths
    lengths = [1 + i % (MAX_SPAN - 1) for i in range(n_short)]
    lengths += [
        low + round((high - low) * (i + 0.5) / n_long) for i in range(n_long)
    ]
    random.Random(workload).shuffle(lengths)
    return lengths


class _Sampler:
    def __init__(self, rng):
        self.rng = rng
        words = content_words(CONTENT_VOCAB)
        rng.shuffle(words)
        self.words = words
        weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(CONTENT_VOCAB)]
        self.cum = list(itertools.accumulate(weights))
        fweights = [1.0 / (r + 1) for r in range(len(FUNCTION_WORDS))]
        self.fcum = list(itertools.accumulate(fweights))

    def token(self):
        u = self.rng.random()
        if u < PUNCT_SHARE:
            return self.rng.choice(PUNCTUATION)
        if u < PUNCT_SHARE + FUNCTION_SHARE:
            return self.rng.choices(FUNCTION_WORDS, cum_weights=self.fcum)[0]
        return self.rng.choices(self.words, cum_weights=self.cum)[0]


def _visual_row(rng, emphasized):
    row = [rng.random() for _ in range(VISUAL_DIM)]
    if emphasized:  # larger font and bold flags on word and block
        for i in (0, 1, 10, 11):
            row[i] = 0.8 + 0.2 * row[i]
    else:
        for i in (0, 1, 10, 11):
            row[i] = 0.5 * row[i]
    return [round(v, 3) for v in row]


def generate(workload, seed):
    """Documents of one workload: a list of dicts with ``id`` and ``tokens``,
    ``visual`` and, for labeled workloads, ``keyphrases``."""
    profile = PROFILES[workload]
    rng = random.Random(f"{workload}:{seed}")
    sampler = _Sampler(rng)
    # keyphrases come from mid-frequency words so they are not all stopword-like
    pool = []
    for _ in range(PHRASE_POOL):
        size = rng.choice((2, 2, 3))
        pool.append(tuple(sampler.words[rng.randrange(20, 400)] for _ in range(size)))
    docs = []
    for i, length in enumerate(profile_lengths(workload)):
        tokens = [sampler.token() for _ in range(length)]
        emphasized = [False] * length
        phrase = None
        if length >= MAX_SPAN:
            phrase = rng.choice(pool)
            window = min(length, TRUNCATE_AT) - len(phrase)
            for _ in range(rng.randint(1, 3)):
                start = rng.randint(0, window)
                tokens[start : start + len(phrase)] = phrase
                emphasized[start : start + len(phrase)] = [True] * len(phrase)
        doc = {
            "id": f"{workload}-{seed}-{i:04d}",
            "tokens": tokens,
            "visual": [_visual_row(rng, e) for e in emphasized],
        }
        if profile.labeled:
            doc["keyphrases"] = [" ".join(phrase)]
        docs.append(doc)
    return docs


def to_jsonl(docs):
    """The dataset file the program reads: one JSON object per line."""
    lines = []
    for doc in docs:
        obj = {"id": doc["id"], "text": " ".join(doc["tokens"]), "visual": doc["visual"]}
        if "keyphrases" in doc:
            obj["keyphrases"] = doc["keyphrases"]
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


def _quartiles(values):
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4, method="inclusive")]


def properties(docs):
    """Measured properties of a corpus, for claims that cite input shape."""
    lengths = [len(d["tokens"]) for d in docs]
    distinct = []
    for d in docs:
        toks = d["tokens"]
        windows = [
            tuple(toks[i : i + k])
            for k in range(1, min(MAX_SPAN, len(toks)) + 1)
            for i in range(len(toks) - k + 1)
        ]
        distinct.append(len(set(windows)) / len(windows))
    chunks = [math.ceil(n / CHUNK_LEN) for n in lengths]
    n = len(docs)
    return {
        "documents": n,
        "tokens": sum(lengths),
        "length_quartiles": _quartiles(lengths),
        "truncated_share": sum(x > TRUNCATE_AT for x in lengths) / n,
        "shorter_than_max_span_share": sum(x < MAX_SPAN for x in lengths) / n,
        "chunks_per_doc_quartiles": _quartiles(chunks),
        "distinct_phrase_share_quartiles": _quartiles(distinct),
    }
