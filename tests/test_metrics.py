import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uag.metrics import (
    OVERLAP_ALPHA,
    OVERLAP_GAMMA,
    OVERLAP_PENALTY_EXP,
    SMOOTHING_EPS,
    _lcs_length,
    corpus_degeneration,
    distinct_n,
    diversity_report,
    mean_pairwise_cosine,
    meteor_simple,
    pairwise_cosine_bow,
    rouge_l,
    self_bleu,
)


def lcs_oracle(a, b):
    """Independent memoized-recursion LCS length."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def bleu_oracle(corpus, max_n=4):
    """Brute-force self-BLEU via explicit n-gram list counting."""
    scores = []
    for i, hyp in enumerate(corpus):
        refs = [corpus[j] for j in range(len(corpus)) if j != i]
        logs = []
        for n in range(1, max_n + 1):
            hyp_grams = [tuple(hyp[k:k + n]) for k in range(len(hyp) - n + 1)]
            if not hyp_grams:
                continue
            clipped = 0
            for gram in set(hyp_grams):
                best = 0
                for ref in refs:
                    ref_grams = [tuple(ref[k:k + n])
                                 for k in range(len(ref) - n + 1)]
                    best = max(best, ref_grams.count(gram))
                clipped += min(hyp_grams.count(gram), best)
            p = clipped / len(hyp_grams) if clipped else SMOOTHING_EPS / len(hyp_grams)
            logs.append(math.log(p))
        if not logs:
            scores.append(0.0)
            continue
        c = len(hyp)
        r = min((len(ref) for ref in refs),
                key=lambda length: (abs(length - c), length))
        bp = 1.0 if c >= r else math.exp(1.0 - r / c)
        scores.append(bp * math.exp(sum(logs) / len(logs)))
    return sum(scores) / len(scores)


def random_corpus(rng, n_texts=None, max_len=10, vocab=8):
    n_texts = n_texts or rng.integers(2, 6)
    return [list(rng.integers(0, vocab, size=rng.integers(2, max_len + 1)))
            for _ in range(n_texts)]


class TestRougeL:
    def test_identical(self):
        assert rouge_l(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["c", "d"]) == 0.0

    def test_derived_example(self):
        score = rouge_l(["a", "b", "c", "d"], ["a", "c", "d"])
        assert score == pytest.approx(2 * 1.0 * 0.75 / 1.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rouge_l([], ["a"])

    def test_swap_leaves_f_unchanged(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = random_corpus(rng, n_texts=2)
            assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))

    def test_matches_lcs_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_corpus(rng, n_texts=2, max_len=12, vocab=5)
            lcs = lcs_oracle(a, b)
            if lcs == 0:
                assert rouge_l(a, b) == 0.0
                continue
            p, r = lcs / len(b), lcs / len(a)
            assert rouge_l(a, b) == pytest.approx(2 * p * r / (p + r), abs=1e-9)


class TestSelfBleu:
    def test_identical_texts(self):
        corpus = [["a", "b", "c", "d", "e"]] * 3
        assert self_bleu(corpus) == pytest.approx(1.0)

    def test_disjoint_unigrams_near_zero(self):
        corpus = [[f"x{i}{j}" for j in range(5)] for i in range(3)]
        assert self_bleu(corpus) <= 0.01

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            corpus = random_corpus(rng, n_texts=rng.integers(2, 6), max_len=10)
            assert self_bleu(corpus) == pytest.approx(bleu_oracle(corpus),
                                                      abs=1e-9)

    def test_too_small_corpus(self):
        with pytest.raises(ValueError):
            self_bleu([["a"]])


class TestMeteorSimple:
    def test_identical_hand_value(self):
        score = meteor_simple(["x", "y", "z"], ["x", "y", "z"])
        assert score == pytest.approx(1.0 - OVERLAP_GAMMA * (1 / 3) ** 3)

    def test_disjoint(self):
        assert meteor_simple(["a"], ["b"]) == 0.0

    def test_swapped_pair_hand_value(self):
        # two matches in two chunks: F=1, penalty = 0.5 * (2/2)^3
        assert meteor_simple(["x", "y"], ["y", "x"]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            meteor_simple([], ["a"])


class TestDistinctN:
    def test_repeated_pairs(self):
        assert distinct_n([["a", "a"], ["a", "a"]], 1) == 0.25

    def test_all_distinct(self):
        assert distinct_n([["a", "b"], ["c", "d"]], 1) == 1.0

    def test_single_repeated_token(self):
        assert distinct_n([["z"] * 7], 1) == pytest.approx(1 / 7)

    def test_no_ngrams_rejected(self):
        with pytest.raises(ValueError):
            distinct_n([["a"]], 2)

    def test_stack_scores_each_corpus(self):
        # one score per corpus, not 7/12 (the corpora's distinct unigrams
        # over the stack's 12)
        stack = np.array([[[0, 1, 2], [0, 1, 3]], [[5, 6, 7], [5, 6, 7]]])
        assert distinct_n(stack, 1).tolist() == [4 / 6, 3 / 6]
        assert distinct_n(stack, 2).tolist() == [3 / 4, 2 / 4]

    @pytest.mark.parametrize("empty", [[], [[], []], np.zeros((2, 3, 0), dtype=int)])
    def test_empty_corpus_rejected(self, empty):
        with pytest.raises(ValueError, match="no 1-grams"):
            distinct_n(empty, 1)


class TestPairwiseCosine:
    def test_identical(self):
        assert pairwise_cosine_bow([["a", "b"], ["a", "b"]]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert pairwise_cosine_bow([["a"], ["b"]]) == 0.0

    def test_derived_half(self):
        assert pairwise_cosine_bow([["a", "b"], ["a", "c"]]) == pytest.approx(0.5)

    def test_permutation_invariant(self):
        corpus = [["a", "b"], ["b", "c"], ["a", "c", "c"]]
        shuffled = [corpus[2], corpus[0], corpus[1]]
        assert pairwise_cosine_bow(corpus) == pytest.approx(
            pairwise_cosine_bow(shuffled))

    def test_stack_rejected(self):
        # pooled, the four texts would score 0.278; each corpus alone
        # scores 2/3 and 1
        stack = np.array([[[0, 1, 2], [0, 1, 3]], [[5, 6, 7], [5, 6, 7]]])
        with pytest.raises(ValueError, match="one corpus"):
            pairwise_cosine_bow(stack)

    def test_latent_variant(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        assert mean_pairwise_cosine(vecs) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("vectors", [[[1e160, 1.0], [1.0, 1.0]],
                                         [[1e200, 1e200], [1e200, 2e200], [1, 0]]])
    def test_non_finite_norm_rejected(self, vectors):
        # a norm past the float range read as a cosine of 0, or NaN
        with pytest.raises(ValueError, match="non-finite norm"):
            mean_pairwise_cosine(vectors)


class TestRepetitionDegen:
    """A text's repetition is the degeneration score of a corpus of it."""

    def test_all_distinct_is_zero(self):
        assert corpus_degeneration([["a", "b", "c"]], 1) == 0.0

    def test_repeated_token_closed_form(self):
        for k in (2, 5, 9):
            assert corpus_degeneration([["t"] * k], 1) == pytest.approx(1 - 1 / k)

    def test_looping_text_scores_higher(self):
        looping = ("she freaked out she swore she swore she swore she "
                   "freaked out she swore she swore").split()
        varied = ("the quiet harbor kept its light while slow boats "
                  "carried strangers toward open water at dusk").split()
        assert corpus_degeneration([looping], 2) > corpus_degeneration([varied[:len(looping)]], 2)


class TestRanges:
    def test_all_metrics_within_declared_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            corpus = random_corpus(rng, vocab=int(rng.integers(2, 10)))
            d = diversity_report(corpus)
            for key in ("self_bleu", "rouge_l_mean", "meteor_simple_mean",
                        "distinct_1", "distinct_2", "degeneration"):
                assert 0.0 <= d[key] <= 1.0, (key, d[key])
            assert -1.0 <= d["pairwise_cosine"] <= 1.0

    def test_degeneration_skips_short_texts(self):
        assert corpus_degeneration([["a"], ["b", "b", "b"]], 2) == 0.5
        assert corpus_degeneration([["a"], ["b"]], 2) == 0.0


# -- oracles: the per-pair kernels the count-once metrics replaced -------


def lcs_two_row(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def rouge_l_oracle(a, b):
    lcs = lcs_two_row(a, b)
    if lcs == 0:
        return 0.0
    p = lcs / len(b)
    r = lcs / len(a)
    return 2.0 * p * r / (p + r)


def ngram_counts_oracle(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_against_refs(hyp, refs, max_n):
    """BLEU of one hypothesis, rebuilding the clipping maxima per reference set."""
    log_precisions = []
    for n in range(1, max_n + 1):
        hyp_counts = ngram_counts_oracle(hyp, n)
        total = sum(hyp_counts.values())
        if total == 0:
            continue
        max_ref = Counter()
        for ref in refs:
            for gram, count in ngram_counts_oracle(ref, n).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped = sum(min(count, max_ref[gram]) for gram, count in hyp_counts.items())
        p_n = clipped / total if clipped > 0 else SMOOTHING_EPS / total
        log_precisions.append(math.log(p_n))
    if not log_precisions:
        return 0.0
    c = len(hyp)
    r = min((len(ref) for ref in refs), key=lambda length: (abs(length - c), length))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(log_precisions) / len(log_precisions))


def self_bleu_oracle(corpus, max_n=4):
    return float(np.mean([
        bleu_against_refs(hyp, [ref for j, ref in enumerate(corpus) if j != i], max_n)
        for i, hyp in enumerate(corpus)]))


def meteor_oracle(a, b):
    available = {}
    for pos, tok in enumerate(b):
        available.setdefault(tok, []).append(pos)
    mapped = [available[tok].pop(0) for tok in a if available.get(tok)]
    if not mapped:
        return 0.0
    m = len(mapped)
    chunks = 1 + sum(cur != prev + 1 for prev, cur in zip(mapped, mapped[1:]))
    p, r = m / len(a), m / len(b)
    f_mean = p * r / (OVERLAP_ALPHA * p + (1.0 - OVERLAP_ALPHA) * r)
    return f_mean * (1.0 - OVERLAP_GAMMA * (chunks / m) ** OVERLAP_PENALTY_EXP)


def distinct_oracle(corpus, n):
    grams = [tuple(t[i:i + n]) for t in corpus for i in range(len(t) - n + 1)]
    if not grams:
        raise ValueError(f"no {n}-grams in corpus")
    return len(set(grams)) / len(grams)


def cosine_bow_oracle(corpus):
    """Per-pair term-frequency cosine, each norm recomputed per pair."""
    if len(corpus) < 2 or any(len(text) == 0 for text in corpus):
        raise ValueError("need at least two nonempty texts")
    index = {}
    for text in corpus:
        for tok in text:
            index.setdefault(tok, len(index))
    vectors = []
    for text in corpus:
        vec = np.zeros(len(index))
        for tok in text:
            vec[index[tok]] += 1.0
        vectors.append(vec)
    return latent_cosine_oracle(vectors)


def latent_cosine_oracle(vectors):
    sims = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            vi, vj = vectors[i], vectors[j]
            sims.append(vi @ vj / (np.linalg.norm(vi) * np.linalg.norm(vj)))
    return float(np.mean(sims))


def degeneration_oracle(corpus, n=2):
    degen = [1.0 - distinct_oracle([t], n) for t in corpus if len(t) >= n]
    return float(np.mean(degen)) if degen else 0.0


def report_oracle(corpus):
    pairs = [(a, b) for i, a in enumerate(corpus) for j, b in enumerate(corpus)
             if i != j]
    return {
        "self_bleu": self_bleu_oracle(corpus),
        "rouge_l_mean": float(np.mean([
            rouge_l_oracle(corpus[i], corpus[j])
            for i in range(len(corpus)) for j in range(i + 1, len(corpus))])),
        "meteor_simple_mean": float(np.mean([meteor_oracle(a, b) for a, b in pairs])),
        "distinct_1": distinct_oracle(corpus, 1),
        "distinct_2": distinct_oracle(corpus, 2),
        "pairwise_cosine": cosine_bow_oracle(corpus),
        "degeneration": degeneration_oracle(corpus),
    }


# Small alphabets so that texts share n-grams and LCS paths branch.
ALPHABETS = (st.integers(0, 4), st.sampled_from("abcde"))


@st.composite
def text_pairs(draw, max_size=14):
    tok = draw(st.sampled_from(ALPHABETS))
    text = st.lists(tok, min_size=1, max_size=max_size)
    return draw(text), draw(text)


@st.composite
def corpora(draw):
    """Corpora of one token type: mixed lengths, short and single-token texts,
    all-identical corpora, and corpora with a repeated text, whose grams
    then tie for the top count."""
    tok = draw(st.sampled_from(ALPHABETS))
    length = draw(st.sampled_from([(1, 1), (1, 3), (1, 14), (2, 40)]))
    text = st.lists(tok, min_size=length[0], max_size=length[1])
    shape = draw(st.sampled_from(["mixed", "identical", "tied"]))
    if shape == "identical":
        return [draw(text)] * draw(st.integers(2, 6))
    corpus = draw(st.lists(text, min_size=2, max_size=7))
    if shape == "tied":
        corpus.insert(draw(st.integers(0, len(corpus))),
                      list(corpus[draw(st.integers(0, len(corpus) - 1))]))
    return corpus


@st.composite
def stacks(draw):
    """Int arrays (corpora, texts, steps) over small alphabets, negative
    ids too, with repeated texts so that grams tie on the top count."""
    corpora, texts, steps = (draw(st.integers(1, 4)), draw(st.integers(2, 5)),
                             draw(st.integers(0, 12)))
    low = draw(st.integers(-3, 2))
    stack = np.array(draw(st.lists(st.integers(low, low + draw(st.integers(0, 4))),
                                   min_size=corpora * texts * steps,
                                   max_size=corpora * texts * steps)),
                     dtype=draw(st.sampled_from([np.int64, np.int32, np.intp])))
    stack = stack.reshape(corpora, texts, steps)
    if draw(st.booleans()):
        stack[:, -1] = stack[:, 0]
    return stack


class TestCountOnceKernels:
    @settings(max_examples=300, deadline=None)
    @given(text_pairs(max_size=90))
    def test_lcs_matches_two_row_dp(self, pair):
        # up to 90 tokens, so the bit vector spans more than one machine word
        a, b = pair
        assert _lcs_length(a, b) == lcs_two_row(a, b)

    @settings(max_examples=300, deadline=None)
    @given(text_pairs())
    def test_rouge_l_is_exact(self, pair):
        assert rouge_l(*pair) == rouge_l_oracle(*pair)

    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.integers(1, 5))
    def test_self_bleu_is_exact(self, corpus, max_n):
        assert self_bleu(corpus, max_n) == self_bleu_oracle(corpus, max_n)

    @settings(max_examples=200, deadline=None)
    @given(corpora())
    def test_diversity_report_is_exact(self, corpus):
        try:
            want = report_oracle(corpus)
        except ValueError:
            with pytest.raises(ValueError):
                diversity_report(corpus)
            return
        assert diversity_report(corpus) == want

    @settings(max_examples=300, deadline=None)
    @given(stacks(), st.integers(1, 5), st.integers(1, 3))
    def test_stack_scores_each_corpus_exactly(self, stack, max_n, n):
        bleus, degens = self_bleu(stack, max_n), corpus_degeneration(stack, n)
        assert bleus.shape == degens.shape == stack.shape[:1]
        for corpus, bleu, degen in zip(stack.tolist(), bleus.tolist(), degens.tolist()):
            assert bleu == self_bleu_oracle(corpus, max_n)
            assert degen == degeneration_oracle(corpus, n)
        if stack.shape[2] < n:
            with pytest.raises(ValueError, match="no .-grams"):
                distinct_n(stack, n)
        else:
            assert distinct_n(stack, n).tolist() == \
                [distinct_oracle(corpus, n) for corpus in stack.tolist()]

    @pytest.mark.parametrize("metric", [self_bleu, distinct_n, corpus_degeneration],
                             ids=lambda f: f.__name__)
    def test_stack_of_no_corpora_rejected(self, metric):
        # each metric names the empty stack, in place of numpy's reshape
        # error or an empty array of scores
        stack = np.zeros((0, 3, 4), int)
        with pytest.raises(ValueError, match="at least one corpus"):
            metric(stack, 2)

    @pytest.mark.parametrize("top", [2**31, 2**60])
    def test_wide_ids_are_ranked_exactly(self, top):
        # ids spread past the stack's size are ranked first: unranked, the
        # bigram key of two ids near 2**31 alone reaches 2**62, and near
        # 2**60 so does a unigram's key times 3 corpora x 15 texts (not a
        # power of 2, so a key that wrapped would split its group)
        rng = np.random.default_rng(31)
        stack = rng.choice([0, 7, top // 2, top - 1, top], size=(3, 5, 12))
        assert top * max(top, 3 * 15) >= 2**62
        bleus, degens = self_bleu(stack), corpus_degeneration(stack)
        for corpus, bleu, degen in zip(stack.tolist(), bleus.tolist(), degens.tolist()):
            assert bleu == self_bleu_oracle(corpus)
            assert degen == degeneration_oracle(corpus)

    def test_wide_gram_keys_are_renumbered_exactly(self):
        # V=4096 4-grams over 32 corpora of 128 texts: corpus c's keys,
        # wrapped past 2**64, would be corpus c + 16's, and merge its grams
        # (each corpus holds the same texts as the one 16 before or after)
        rng = np.random.default_rng(4096)
        stack = np.concatenate([rng.integers(0, 4096, size=(16, 128, 6))] * 2)
        stack[0, 0, :2] = 0, 4095
        corpora, texts = stack.shape[:2]
        assert 4096**4 * corpora * (corpora * texts) >= 2**64
        bleus, degens = self_bleu(stack), corpus_degeneration(stack)
        # one corpus alone keys its grams far below 2**62
        for corpus, bleu, degen in zip(stack.tolist(), bleus.tolist(), degens.tolist()):
            assert bleu == self_bleu(corpus)
            assert degen == corpus_degeneration(corpus)
        assert bleus[1] == self_bleu_oracle(stack[1].tolist())

    def test_tied_top_count_clips_to_the_tie(self):
        # "a b" is held twice by texts 0 and 1; each is clipped by the other
        corpus = [["a", "b", "a", "b"], ["a", "b", "a", "b"], ["a", "b"]]
        assert self_bleu(corpus) == self_bleu_oracle(corpus)
        assert self_bleu(corpus[:2]) == 1.0

    def test_distinct_needs_positive_order(self):
        with pytest.raises(ValueError):
            distinct_n([["a", "b"]], 0)

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_self_bleu_needs_positive_order(self, max_n):
        # no order to score read as a score of 0.0
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            self_bleu([["a", "b"], ["a", "c"]], max_n)

    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.integers(1, 5))
    def test_distinct_n_is_exact(self, corpus, n):
        try:
            want = distinct_oracle(corpus, n)
        except ValueError:
            with pytest.raises(ValueError):
                distinct_n(corpus, n)
            return
        assert distinct_n(corpus, n) == want

    @settings(max_examples=200, deadline=None)
    @given(corpora())
    def test_pairwise_cosine_bow_is_exact(self, corpus):
        if len(corpus) < 2:
            return
        assert pairwise_cosine_bow(corpus) == cosine_bow_oracle(corpus)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_mean_pairwise_cosine_is_exact(self, n, dim, seed):
        # the Gram matrix sums each dot product in another order than the
        # per-pair dots do, so real vectors may differ in the last bits;
        # term counts are integers, and their cosines match exactly above
        vectors = list(np.random.default_rng(seed).standard_normal((n, dim)))
        assert mean_pairwise_cosine(vectors) == pytest.approx(latent_cosine_oracle(vectors),
                                                              rel=1e-12, abs=1e-15)
        with pytest.raises(ValueError):
            mean_pairwise_cosine(vectors + [np.zeros(dim)])
