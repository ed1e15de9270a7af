"""Corpus diversity and degeneration metrics for multi-branch outputs.

All metrics operate on token sequences (any hashable token type).  They
are desk-scale stand-ins for the usual n-gram and embedding metrics:
sentence embeddings are replaced by term-frequency bag-of-words vectors
and the unigram-overlap score uses exact matches only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Smoothing for zero clipped n-gram counts: p_n = SMOOTHING_EPS / total.
SMOOTHING_EPS = 1e-3

# Unigram-overlap score constants (recall-weighted harmonic mean plus a
# fragmentation penalty gamma * (chunks / matches) ** penalty_exp).
OVERLAP_ALPHA = 0.9
OVERLAP_GAMMA = 0.5
OVERLAP_PENALTY_EXP = 3.0


@dataclass(frozen=True)
class DiversityReport:
    """Summary metrics for one multi-branch corpus."""

    self_bleu: float
    rouge_l_mean: float
    meteor_simple_mean: float
    distinct_1: float
    distinct_2: float
    pairwise_cosine: float
    degeneration: float

    def to_dict(self) -> dict:
        return {
            "self_bleu": self.self_bleu,
            "rouge_l_mean": self.rouge_l_mean,
            "meteor_simple_mean": self.meteor_simple_mean,
            "distinct_1": self.distinct_1,
            "distinct_2": self.distinct_2,
            "pairwise_cosine": self.pairwise_cosine,
            "degeneration": self.degeneration,
        }


def _lcs_length(a, b) -> int:
    """Bit-parallel LCS length (Allison-Dix, in Hyyro's formulation).

    Bit j of match[y] is set where b[j] == y.  v holds one bit per token
    of b; after each token of a, the zero bits of v count the LCS of the
    tokens of a read so far against b.
    """
    match: dict = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = match.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(a, b) -> float:
    """LCS-based F1: P = LCS/|b|, R = LCS/|a|, F = 2PR/(P+R)."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("sequences must be nonempty")
    lcs = _lcs_length(a, b)
    if lcs == 0:
        return 0.0
    p = lcs / len(b)
    r = lcs / len(a)
    return 2.0 * p * r / (p + r)


def _ngrams(tokens, n: int):
    return zip(*(tokens[k:] for k in range(n)))


def _clip_table(counts) -> dict:
    """Per n-gram: [top count over texts, the text holding it, runner-up count].

    The largest count of a gram over every text but i is the top count,
    or the runner-up when text i holds the top.  Texts tied on the top
    count make the runner-up equal to it.
    """
    table: dict = {}
    for owner, text_counts in enumerate(counts):
        for gram, count in text_counts.items():
            entry = table.get(gram)
            if entry is None:
                table[gram] = [count, owner, 0]
            elif count > entry[0]:
                entry[2] = entry[0]
                entry[0] = count
                entry[1] = owner
            elif count > entry[2]:
                entry[2] = count
    return table


def _bleu_against(i: int, hyp_counts, tables, lengths) -> float:
    """Smoothed BLEU of text i against every other text of the corpus.

    hyp_counts holds text i's n-gram counts and tables the matching
    _clip_table per order.  Clipped n-gram precision per order; orders
    with no hypothesis n-grams are skipped; zero clipped counts are
    smoothed to SMOOTHING_EPS/total.  Brevity penalty uses the reference
    length closest to the hypothesis (ties toward the shorter reference).
    """
    log_precisions = []
    for counts, table in zip(hyp_counts, tables):
        total = sum(counts.values())
        if total == 0:
            continue
        clipped = 0
        for gram, count in counts.items():
            top, owner, second = table[gram]
            ref_max = second if owner == i else top
            clipped += count if count < ref_max else ref_max
        p_n = clipped / total if clipped > 0 else SMOOTHING_EPS / total
        log_precisions.append(math.log(p_n))
    if not log_precisions:
        return 0.0
    c = lengths[i]
    r = min((length for j, length in enumerate(lengths) if j != i),
            key=lambda length: (abs(length - c), length))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(log_precisions) / len(log_precisions))


def self_bleu(corpus, max_n: int = 4) -> float:
    """Mean BLEU of each text against all others; lower is more diverse."""
    if len(corpus) < 2:
        raise ValueError("self-BLEU needs at least two texts")
    counts = [[Counter(_ngrams(text, n)) for n in range(1, max_n + 1)]
              for text in corpus]
    tables = [_clip_table(order) for order in zip(*counts)]
    lengths = [len(text) for text in corpus]
    scores = [_bleu_against(i, hyp_counts, tables, lengths)
              for i, hyp_counts in enumerate(counts)]
    return float(np.mean(scores))


def _match_chunks(a, b) -> tuple[int, int]:
    """Greedy leftmost unigram alignment; returns (matches, chunks)."""
    available: dict = {}
    for pos in range(len(b) - 1, -1, -1):
        available.setdefault(b[pos], []).append(pos)
    # each list runs right to left, so pop() takes the leftmost free slot
    matches = chunks = 0
    prev = -2
    for tok in a:
        slots = available.get(tok)
        if slots:
            pos = slots.pop()
            matches += 1
            if pos != prev + 1:
                chunks += 1
            prev = pos
    return matches, chunks


def meteor_simple(a, b) -> float:
    """Exact-match unigram overlap with a fragmentation penalty.

    m = matched unigrams (multiplicity-aware), P = m/|a|, R = m/|b|,
    F = PR / (alpha P + (1-alpha) R), score = F * (1 - gamma *
    (chunks/m)^penalty_exp).  No stemming or synonym matching.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("sequences must be nonempty")
    m, chunks = _match_chunks(a, b)
    if m == 0:
        return 0.0
    p = m / len(a)
    r = m / len(b)
    f_mean = p * r / (OVERLAP_ALPHA * p + (1.0 - OVERLAP_ALPHA) * r)
    penalty = OVERLAP_GAMMA * (chunks / m) ** OVERLAP_PENALTY_EXP
    return f_mean * (1.0 - penalty)


def distinct_n(corpus, n: int) -> float:
    """Unique n-grams over total n-grams, pooled across the corpus."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    unique = set()
    for text in corpus:
        total += max(len(text) - n + 1, 0)
        unique.update(_ngrams(text, n))
    if total == 0:
        raise ValueError(f"no {n}-grams in corpus")
    return len(unique) / total


def _tf_vector(text, vocab_index) -> np.ndarray:
    return np.bincount([vocab_index[tok] for tok in text],
                       minlength=len(vocab_index)).astype(float)


def _mean_pair_cosine(vectors, norms) -> float:
    """Mean of v_i . v_j / (|v_i||v_j|) over pairs i < j, in that order."""
    sims = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            sims.append(vectors[i] @ vectors[j] / (norms[i] * norms[j]))
    return float(np.mean(sims))


def pairwise_cosine_bow(corpus) -> float:
    """Mean cosine over unordered pairs of term-frequency vectors."""
    if len(corpus) < 2:
        raise ValueError("need at least two texts")
    if any(len(text) == 0 for text in corpus):
        raise ValueError("texts must be nonempty")
    vocab_index = {}
    for text in corpus:
        for tok in text:
            vocab_index.setdefault(tok, len(vocab_index))
    vectors = [_tf_vector(text, vocab_index) for text in corpus]
    return _mean_pair_cosine(vectors, [np.linalg.norm(v) for v in vectors])


def mean_pairwise_cosine(vectors) -> float:
    """Mean cosine over unordered pairs of real vectors (latent diversity)."""
    if len(vectors) < 2:
        raise ValueError("need at least two vectors")
    arrs = [np.asarray(v, dtype=float) for v in vectors]
    norms = [np.linalg.norm(v) for v in arrs]
    if 0.0 in norms:
        raise ValueError("cosine undefined for zero-norm vector")
    return _mean_pair_cosine(arrs, norms)


def repetition_degen(text, n: int = 2) -> float:
    """Repetitiveness of a single text: 1 - distinct_n; higher is worse."""
    if len(text) < n:
        raise ValueError(f"text shorter than {n}")
    return 1.0 - distinct_n([text], n)


def corpus_degeneration(corpus, n: int = 2) -> float:
    """Mean repetition over texts long enough to score; 0 if none are."""
    scores = [repetition_degen(text, n) for text in corpus if len(text) >= n]
    return float(np.mean(scores)) if scores else 0.0


def report_csv_rows(metrics: dict, config_id: str) -> list[tuple]:
    """(config, metric, value) rows for the flat CSV export."""
    return [(config_id, name, value) for name, value in sorted(metrics.items())]


def diversity_report(corpus, max_n: int = 4, degen_n: int = 2) -> DiversityReport:
    """Full metric summary for one corpus of token sequences."""
    if len(corpus) < 2:
        raise ValueError("report needs at least two texts")
    rouge_scores = []
    meteor_scores = []
    for i in range(len(corpus)):
        for j in range(len(corpus)):
            if i == j:
                continue
            meteor_scores.append(meteor_simple(corpus[i], corpus[j]))
            if i < j:
                rouge_scores.append(rouge_l(corpus[i], corpus[j]))
    return DiversityReport(
        self_bleu=self_bleu(corpus, max_n),
        rouge_l_mean=float(np.mean(rouge_scores)),
        meteor_simple_mean=float(np.mean(meteor_scores)),
        distinct_1=distinct_n(corpus, 1),
        distinct_2=distinct_n(corpus, 2),
        pairwise_cosine=pairwise_cosine_bow(corpus),
        degeneration=corpus_degeneration(corpus, degen_n),
    )
