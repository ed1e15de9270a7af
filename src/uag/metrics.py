"""Corpus diversity and degeneration metrics for multi-branch outputs.

All metrics operate on token sequences (any hashable token type).  They
are desk-scale stand-ins for the usual n-gram and embedding metrics:
sentence embeddings are replaced by term-frequency bag-of-words vectors
and the unigram-overlap score uses exact matches only.

Self-BLEU, distinct-n, the bag-of-words cosine and the corpus
degeneration score read texts as flat int64 token ids (_token_ids);
all but the cosine also take a stack of corpora, an int array
(corpora, texts, steps), and return one score per corpus.
_gram_triples keys every n-gram as one integer and sorts each order's
(corpus, gram, text) keys once.  Self-BLEU clips each text's count of a
gram against the largest count of that gram over the corpus's other
texts: the gram's top count, or its runner-up where the text holds the
top.  A tie on the top makes the runner-up equal to the top, so ties
need no owner.
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


# The largest key _gram_triples forms stays below this, so int64 holds it.
_KEY_LIMIT = 2 ** 62


def _stacked(corpus) -> bool:
    """Whether corpus is a stack of corpora, an array (corpora, texts, steps)."""
    return isinstance(corpus, np.ndarray) and corpus.ndim == 3


def _token_ids(corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, lengths, sizes): every text's tokens as int64 ids end to end,
    each text's length and each corpus's text count.

    An int array (corpora, texts, steps) is a stack of corpora, whose
    values are the ids, or their ranks where one is negative or reaches
    the stack's size.  Anything else is one corpus of token sequences,
    whose tokens are numbered in order of first appearance.  Either way
    the ids lie in [0, number of tokens).
    """
    if _stacked(corpus):
        if not np.issubdtype(corpus.dtype, np.integer):
            raise ValueError(f"a stack of corpora holds integer ids, not {corpus.dtype}")
        corpora, texts, steps = corpus.shape
        if not corpora:
            raise ValueError("a stack of corpora needs at least one corpus")
        ids = corpus.reshape(-1).astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= ids.size):
            ids = np.unique(ids, return_inverse=True)[1].reshape(-1)
        return ids, np.full(corpora * texts, steps), np.full(corpora, texts)
    index: dict = {}
    ids = [index.setdefault(tok, len(index)) for text in corpus for tok in text]
    return (np.array(ids, dtype=np.int64), np.array([len(text) for text in corpus], dtype=int),
            np.array([len(corpus)]))


def _gram_triples(ids, lengths, sizes, orders):
    """For each order n in `orders` (increasing), the distinct (corpus,
    gram, text) triples of the texts' n-grams, sorted: (text, count,
    starts), with each triple's text, its gram's count in that text, and
    the index of each (corpus, gram) group's first triple.

    Texts are given as _token_ids returns them, with ids in [0, v).  An
    n-gram's key is its (n-1)-gram's key * v plus its last id, and a
    triple's key is (corpus * base + gram) * texts + text, where base
    bounds the gram keys; one sort per order then groups each corpus's
    grams and each gram's texts.  Before base * v * corpora * texts
    would reach _KEY_LIMIT, the gram keys are renumbered 0 .. distinct
    - 1.  A key that straddles two texts is formed but never counted.
    """
    n_texts = len(lengths)
    v = int(ids.max()) + 1 if len(ids) else 1
    text = np.repeat(np.arange(n_texts), lengths)
    corpus = np.repeat(np.repeat(np.arange(len(sizes)), sizes), lengths)
    # tokens from each position to the end of its text
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))
    scale = len(sizes) * n_texts
    keys, base = np.zeros(len(ids), dtype=np.int64), 1
    for n in range(1, orders[-1] + 1):
        if base * v * scale >= _KEY_LIMIT:
            distinct, keys = np.unique(keys, return_inverse=True)
            base = len(distinct)
        stop = max(len(ids) - n + 1, 0)
        keys = keys[:stop] * v + ids[n - 1:]
        base *= v
        if n not in orders:
            continue
        inside = left[:stop] >= n
        triples = np.sort((corpus[:stop][inside] * base + keys[inside]) * n_texts
                          + text[:stop][inside])
        first = np.flatnonzero(np.diff(triples, prepend=-1))
        group = triples[first] // n_texts
        yield (triples[first] % n_texts, np.diff(first, append=len(triples)),
               np.flatnonzero(np.diff(group, prepend=-1)))


def _reference_lengths(lengths, corpora: int) -> np.ndarray:
    """Each text's brevity-penalty reference: the length, among the other
    texts of its corpus, closest to its own, ties toward the shorter.
    The corpora hold equally many texts."""
    lengths = lengths.reshape(corpora, -1)
    size, bound = lengths.shape[1], int(lengths.max()) + 1
    # key[c, i, j] orders text j's length as text i's reference
    key = np.abs(lengths[:, None, :] - lengths[:, :, None]) * bound + lengths[:, None, :]
    key.reshape(corpora, -1)[:, ::size + 1] = key.max() + 1  # no text is its own
    return (key.min(axis=2) % bound).reshape(-1)


def self_bleu(corpus, max_n: int = 4) -> float | np.ndarray:
    """Mean BLEU of each text against all others; lower is more diverse.

    Per order n, text i's count of gram g is clipped to the largest
    count of g over every other text.  That is g's top count, or its
    runner-up where text i holds the top; texts tied on the top make the
    runner-up equal to it, so no text needs to be marked as the owner.
    Orders with no hypothesis n-grams are skipped; zero clipped counts
    are smoothed to SMOOTHING_EPS/total.  The brevity penalty uses the
    other text whose length is closest to the hypothesis (ties toward
    the shorter one).  For a stack of corpora (an int array (corpora,
    texts, steps)) the result is an array with each corpus's score.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ids, lengths, sizes = _token_ids(corpus)
    if (sizes < 2).any():
        raise ValueError("self-BLEU needs at least two texts")
    log_precisions: list[list[float]] = [[] for _ in lengths]
    orders = range(1, max_n + 1)
    for n, (text, count, starts) in zip(orders, _gram_triples(ids, lengths, sizes, orders)):
        width = np.diff(starts, append=len(count))
        top = np.maximum.reduceat(count, starts)
        at_top = count == np.repeat(top, width)
        tied = np.add.reduceat(at_top, starts, dtype=int) > 1
        runner_up = np.where(tied, top, np.maximum.reduceat(np.where(at_top, 0, count), starts))
        clipped = np.where(at_top, np.repeat(runner_up, width), count)
        hits = np.bincount(text, clipped, minlength=len(lengths)).astype(np.int64).tolist()
        for logs, hit, total in zip(log_precisions, hits, (lengths - n + 1).tolist()):
            if total > 0:
                logs.append(math.log(hit / total if hit else SMOOTHING_EPS / total))
    scores = []
    for logs, c, r in zip(log_precisions, lengths.tolist(),
                          _reference_lengths(lengths, len(sizes)).tolist()):
        if not logs:
            scores.append(0.0)
            continue
        bp = 1.0 if c >= r else math.exp(1.0 - r / c)
        scores.append(bp * math.exp(sum(logs) / len(logs)))
    means = np.array(scores).reshape(len(sizes), -1).mean(axis=1)
    return means if _stacked(corpus) else float(means[0])


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


def distinct_n(corpus, n: int) -> float | np.ndarray:
    """Distinct n-grams over total n-grams, pooled across the corpus: the
    count of _gram_triples' order-n (corpus, gram) groups.  For a stack
    of corpora the result is an array with each corpus's score."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ids, lengths, sizes = _token_ids(corpus)
    totals = np.maximum(lengths - n + 1, 0).reshape(len(sizes), -1).sum(axis=1)
    if not totals.all():
        raise ValueError(f"no {n}-grams in corpus")
    text, _, starts = next(_gram_triples(ids, lengths, sizes, range(n, n + 1)))
    # a group's corpus is its first text's; a stack's corpora are equally large
    scores = np.bincount(text[starts] // sizes[0], minlength=len(sizes)) / totals
    return scores if _stacked(corpus) else float(scores[0])


def mean_pairwise_cosine(vectors) -> float:
    """Mean cosine v_i . v_j / (|v_i||v_j|) over pairs i < j, in that
    order, read from one Gram matrix: the latents' diversity, or the
    bag-of-words cosine of term-count vectors."""
    if len(vectors) < 2:
        raise ValueError("need at least two vectors")
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
    """Mean cosine over unordered pairs of term-frequency vectors, of
    one corpus."""
    if _stacked(corpus):
        raise ValueError("the bag-of-words cosine takes one corpus, not a stack")
    if len(corpus) < 2:
        raise ValueError("need at least two texts")
    if any(len(text) == 0 for text in corpus):
        raise ValueError("texts must be nonempty")
    ids, lengths, _ = _token_ids(corpus)
    # counts[i, t]: occurrences of token t in text i
    v = int(ids.max()) + 1
    counts = np.bincount(np.repeat(np.arange(len(lengths)), lengths) * v + ids,
                         minlength=len(lengths) * v)
    return mean_pairwise_cosine(counts.reshape(len(lengths), v))


def corpus_degeneration(corpus, n: int = 2) -> float | np.ndarray:
    """Mean repetition 1 - distinct/total of n-grams over the texts long
    enough to score; 0 if none are.  For a stack of corpora (an int
    array (corpora, texts, steps)) the result is an array with each
    corpus's score."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ids, lengths, sizes = _token_ids(corpus)
    text, _, _ = next(_gram_triples(ids, lengths, sizes, range(n, n + 1)))
    # a stack's texts share one length, so each corpus keeps all or none
    scored = lengths >= n
    means = np.zeros(len(sizes))
    if scored.any():
        distinct = np.bincount(text, minlength=len(lengths))[scored]
        means = (1.0 - distinct / (lengths[scored] - n + 1)).reshape(len(sizes), -1).mean(axis=1)
    return means if _stacked(corpus) else float(means[0])


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
