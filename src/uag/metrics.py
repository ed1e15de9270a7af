"""Corpus diversity and degeneration metrics for multi-branch outputs.

All metrics operate on token sequences (any hashable token type).  They
are desk-scale stand-ins for the usual n-gram and embedding metrics:
sentence embeddings are replaced by term-frequency bag-of-words vectors
and the unigram-overlap score uses exact matches only.

Self-BLEU and the bag-of-words cosine read one integer count matrix per
n-gram order, counts[i, g] for text i and gram g.  Self-BLEU clips text
i against the column-wise largest count over the other texts: the
column's top count, or its runner-up where text i holds the top.  A tie
on the top makes the runner-up equal to the top, so ties need no
owner.  Distinct-n and the repetition scores count with sets instead,
which is cheaper for the one- and few-text calls they mostly serve.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Smoothing for zero clipped n-gram counts: p_n = SMOOTHING_EPS / total.
SMOOTHING_EPS = 1e-3

# Unigram-overlap score constants (recall-weighted harmonic mean plus a
# fragmentation penalty gamma * (chunks / matches) ** penalty_exp).
OVERLAP_ALPHA = 0.9
OVERLAP_GAMMA = 0.5
OVERLAP_PENALTY_EXP = 3.0


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


def _count_matrix(corpus, n: int) -> np.ndarray:
    """counts[i, g]: occurrences of n-gram g in text i, with the grams
    numbered in order of first appearance over the corpus."""
    index: dict = {}
    ids = [[index.setdefault(gram, len(index)) for gram in _ngrams(text, n)]
           for text in corpus]
    return np.array([np.bincount(row, minlength=len(index)) for row in ids])


def self_bleu(corpus, max_n: int = 4) -> float:
    """Mean BLEU of each text against all others; lower is more diverse.

    Per order n, with counts from _count_matrix, text i's count of gram
    g is clipped to the largest count of g over every other text.  That
    is the top count of column g, or its runner-up where text i holds
    the top; texts tied on the top make the runner-up equal to it, so
    no text needs to be marked as the owner.  Orders with no hypothesis
    n-grams are skipped; zero clipped counts are smoothed to
    SMOOTHING_EPS/total.  The brevity penalty uses the other text whose
    length is closest to the hypothesis (ties toward the shorter one).
    """
    if len(corpus) < 2:
        raise ValueError("self-BLEU needs at least two texts")
    log_precisions: list[list[float]] = [[] for _ in corpus]
    for n in range(1, max_n + 1):
        counts = _count_matrix(corpus, n)
        runner_up, top = np.sort(counts, axis=0)[-2:]
        ref_max = np.where(counts == top, runner_up, top)
        clipped = np.minimum(counts, ref_max).sum(axis=1).tolist()
        totals = counts.sum(axis=1).tolist()
        for logs, hits, total in zip(log_precisions, clipped, totals):
            if total:
                logs.append(math.log(hits / total if hits else SMOOTHING_EPS / total))
    lengths = [len(text) for text in corpus]
    scores = []
    for i, logs in enumerate(log_precisions):
        if not logs:
            scores.append(0.0)
            continue
        c = lengths[i]
        r = min((length for j, length in enumerate(lengths) if j != i),
                key=lambda length: (abs(length - c), length))
        bp = 1.0 if c >= r else math.exp(1.0 - r / c)
        scores.append(bp * math.exp(sum(logs) / len(logs)))
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


def _mean_pair_cosine(vectors) -> float:
    """Mean of v_i . v_j / (|v_i||v_j|) over pairs i < j, in that order,
    read from one Gram matrix."""
    vectors = np.asarray(vectors, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        gram = vectors @ vectors.T
        norms = np.sqrt(np.diagonal(gram))
    if not np.isfinite(norms).all():
        raise ValueError("cosine undefined for a non-finite norm")
    if not norms.all():
        raise ValueError("cosine undefined for zero-norm vector")
    i, j = np.triu_indices(len(vectors), 1)
    return float(np.mean(gram[i, j] / (norms[i] * norms[j])))


def pairwise_cosine_bow(corpus) -> float:
    """Mean cosine over unordered pairs of term-frequency vectors."""
    if len(corpus) < 2:
        raise ValueError("need at least two texts")
    if any(len(text) == 0 for text in corpus):
        raise ValueError("texts must be nonempty")
    return _mean_pair_cosine(_count_matrix(corpus, 1))


def mean_pairwise_cosine(vectors) -> float:
    """Mean cosine over unordered pairs of real vectors (latent diversity)."""
    if len(vectors) < 2:
        raise ValueError("need at least two vectors")
    return _mean_pair_cosine(vectors)


def repetition_degen(text, n: int = 2) -> float:
    """Repetitiveness of a single text: 1 - distinct_n; higher is worse."""
    if len(text) < n:
        raise ValueError(f"text shorter than {n}")
    return 1.0 - distinct_n([text], n)


def corpus_degeneration(corpus, n: int = 2) -> float:
    """Mean repetition over texts long enough to score; 0 if none are."""
    scores = [repetition_degen(text, n) for text in corpus if len(text) >= n]
    return float(np.mean(scores)) if scores else 0.0


def diversity_report(corpus) -> dict[str, float]:
    """Full metric summary for one corpus of token sequences: self-BLEU
    up to 4-grams, degeneration over bigrams."""
    if len(corpus) < 2:
        raise ValueError("report needs at least two texts")
    return {
        "self_bleu": self_bleu(corpus),
        "rouge_l_mean": float(np.mean(
            [rouge_l(a, b) for a, b in itertools.combinations(corpus, 2)])),
        "meteor_simple_mean": float(np.mean(
            [meteor_simple(a, b) for a, b in itertools.permutations(corpus, 2)])),
        "distinct_1": distinct_n(corpus, 1),
        "distinct_2": distinct_n(corpus, 2),
        "pairwise_cosine": pairwise_cosine_bow(corpus),
        "degeneration": corpus_degeneration(corpus),
    }
