"""The array penalty kernels against per-reference loop formulas.

The reference functions in branch_oracle loop over the bank one
reference at a time, the way the penalties were first written; the
kernels in uag.penalty do one matrix product over a stacked bank, here
through one lane (see one_lane).  Both must agree to 1e-12 on every bank
shape the step loops can produce.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from branch_oracle import (
    ref_embedding_gradient,
    ref_global_loss,
    ref_hidden_gradient,
    ref_latent_gradient,
    ref_latent_loss,
    ref_local_loss,
    ref_normalize,
    ref_repulsion,
)
from one_lane import embedding, hidden, latent, repulsion

from uag import penalty
from uag.penalty import (
    BLOCK_FLOATS,
    TanhEmbedder,
    embedding_cosine_loss,
    embedding_penalty_gradient,
    hidden_gradient_projected,
    lane_matvec,
    latent_cosine_gradient,
    latent_cosine_loss,
    normalize_gradient,
    repulsion_gradient,
    softmax,
)

TOL = 1e-12
CAPACITY = 6


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


def _banks(rng, dim, make):
    """Random banks of every size from 1 to CAPACITY, as lists and arrays,
    plus banks with an exact duplicate of an earlier row."""
    for n in range(1, CAPACITY + 1):
        rows = [make(rng, dim) for _ in range(n)]
        yield rows
        yield np.array(rows)
        if n > 1:
            dup = rows + [rows[int(rng.integers(n))].copy()]
            yield dup
            yield np.array(dup)


def _dist(rng, v):
    return softmax(rng.standard_normal(v) * 2)


def _gauss(rng, d):
    return rng.standard_normal(d)


def test_output_kernels_match_the_loop():
    rng = np.random.default_rng(0)
    for bank in _banks(rng, 24, _dist):
        y = rng.standard_normal(24) * 3
        loss, grad = repulsion(y, bank)
        _close(loss, ref_local_loss(y, bank))
        _close(grad, ref_repulsion(y, bank))


def test_hidden_kernels_match_the_loop():
    rng = np.random.default_rng(1)
    head = rng.standard_normal((20, 12))
    for bank in _banks(rng, 12, _gauss):
        h = rng.standard_normal(12)
        loss, grad = hidden(h, bank, head)
        _close(loss, ref_global_loss(h, bank))
        _close(grad, ref_hidden_gradient(h, bank, head))


def test_cosine_kernels_match_the_loop():
    rng = np.random.default_rng(2)
    embedder = TanhEmbedder(u=rng.standard_normal((5, 9)), c=rng.standard_normal(5))
    for bank in _banks(rng, 9, _gauss):
        z = rng.standard_normal(9)
        _close(latent_cosine_loss(z, bank), ref_latent_loss(z, bank))
        loss, grad = latent(z, bank)
        _close(loss, ref_latent_loss(z, bank))
        _close(grad, ref_latent_gradient(z, bank))
    for bank in _banks(rng, 5, _gauss):
        z = rng.standard_normal(9)
        _close(embedding_cosine_loss(z, embedder, bank),
               ref_latent_loss(embedder.embed(z), bank))
        loss, grad = embedding(z, embedder, bank)
        _close(loss, ref_latent_loss(embedder.embed(z), bank))
        _close(grad, ref_embedding_gradient(z, embedder, bank))


def test_lowest_index_wins_an_exact_tie():
    # rows 0 and 2 tie for the maximum; row 2 differs from row 0 so the
    # selected index shows in the gradient, while the loss is the tied max
    head = np.eye(2)
    bank = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 3.0]])
    loss, grad = hidden([2.0, 1.0], bank, head)
    assert loss == 3.0
    _close(grad, [1.0, 1.0])
    loss, grad = repulsion([0.0, 0.0], np.array([[0.2, 0.8], [0.8, 0.2], [0.2, 0.8]]))
    assert loss == 0.5
    _close(grad, ref_repulsion(np.zeros(2), [np.array([0.2, 0.8])]))


def test_hidden_kernel_gathers_without_a_matrix_product(monkeypatch):
    # the logit-space gradient is a row of the projected bank the model
    # step computed, picked per query and lane, never a product with W
    rng = np.random.default_rng(6)
    refs = rng.standard_normal((4, 2, 5))
    projected = lane_matvec(rng.standard_normal((7, 5)), refs)

    def no_matvec(*args, **kwargs):
        raise AssertionError("hidden_gradient_projected ran a matrix-vector product")

    h = rng.standard_normal((3, 2, 5))
    monkeypatch.setattr(penalty, "lane_matvec", no_matvec)
    _, grad = hidden_gradient_projected(h, refs, projected, np.ones((3, 4), dtype=bool))
    best = np.einsum("qld,nld->qln", h, refs).argmax(axis=-1)
    np.testing.assert_array_equal(grad, projected[best, np.arange(2)])


def _blocked_shapes(rng):
    """(rows, k, leading) of matrices lane_matvec splits into row blocks."""
    block = BLOCK_FLOATS // 256 // 8 * 8
    yield 3 * block + 1, 256, (2,)  # a one-row remainder, merged into the last block
    yield 3 * block + 7, 256, (5, 1)
    yield 20, BLOCK_FLOATS // 4 + 1, (3,)  # blocks of the 8-row minimum
    for i in range(40):
        k = int(rng.integers(1, 200)) * 2 + 1  # odd k: rows alternate in 16-byte alignment
        rows = int(rng.integers(BLOCK_FLOATS // k + 1, 4 * BLOCK_FLOATS // k))
        yield rows, k, ((), (1,), (2,), (3,), (5,), (4, 2))[i % 6]


def test_blocked_matvec_equals_one_product_bit_for_bit():
    # every shape stays below the size at which OpenBLAS splits one
    # matrix-vector product across threads, so both sides run one thread
    rng = np.random.default_rng(12)
    for n, (rows, k, leading) in enumerate(_blocked_shapes(rng)):
        assert rows * k > BLOCK_FLOATS
        a = rng.standard_normal((rows, k))
        x = rng.standard_normal((*leading, k))
        want = np.matmul(a, x[..., None])[..., 0]
        out = np.full((*leading, rows), np.nan) if n % 2 else None
        got = lane_matvec(a, x, out)
        np.testing.assert_array_equal(got, want, err_msg=f"{rows}x{k} {leading}")
        if out is not None:
            np.testing.assert_array_equal(out, want)


_ODD_HEADS = """
import sys
import numpy as np
from uag.penalty import lane_matvec
rng = np.random.default_rng(21)
for rows, k in ((2109, 385), (2834, 187)):
    a, x = rng.standard_normal((rows, k)), rng.standard_normal((3, k))
    sys.stdout.buffer.write(lane_matvec(a, x).tobytes())
"""


def test_blocked_matvec_bytes_do_not_depend_on_the_blas_thread_count():
    # at these odd shapes OpenBLAS splits one matrix-vector product of the
    # whole matrix across 2 threads, which moves its last bits; each row
    # block stays under the size at which it splits
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        outputs.append(subprocess.run([sys.executable, "-c", _ODD_HEADS], env=env, check=True,
                                      capture_output=True, timeout=120).stdout)
    one, two = (np.frombuffer(out) for out in outputs)
    assert one.size == 3 * (2109 + 2834)
    np.testing.assert_array_equal(one, two)


def test_normalize_matches_mean_and_var():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = rng.standard_normal(int(rng.integers(2, 70))) * rng.uniform(0.1, 50)
        np.testing.assert_array_equal(normalize_gradient(g, 1e-5), ref_normalize(g, 1e-5))


def test_empty_and_zero_norm_banks_raise():
    embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
    head = np.eye(2)
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(ValueError, match="empty reference bank"):
            repulsion([0.0, 1.0], empty)
        with pytest.raises(ValueError, match="empty reference bank"):
            hidden([0.0, 1.0], empty, head)
        with pytest.raises(ValueError, match="empty reference bank"):
            latent([0.0, 1.0], empty)
        with pytest.raises(ValueError, match="empty reference bank"):
            embedding([0.0, 1.0], embedder, empty)
        assert latent_cosine_loss([0.0, 1.0], empty) == 0.0
    for bank in ([np.array([1.0, 0.0]), np.zeros(2)], np.array([[1.0, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="zero-norm"):
            latent([1.0, 1.0], bank)
        with pytest.raises(ValueError, match="zero-norm"):
            latent_cosine_loss([1.0, 1.0], bank)
    with pytest.raises(ValueError, match="zero-norm"):
        latent([0.0, 0.0], np.array([[1.0, 0.0]]))


def test_embedding_loss_is_latent_loss_of_the_embedding():
    rng = np.random.default_rng(12)
    for _ in range(300):
        m, e, n = (int(k) for k in rng.integers([1, 1, 0], 9))
        embedder = TanhEmbedder(u=rng.standard_normal((e, m)), c=rng.standard_normal(e))
        z, bank = rng.standard_normal(m) * rng.uniform(0.01, 100), rng.standard_normal((n, e))
        assert embedding_cosine_loss(z, embedder, bank) == \
            latent_cosine_loss(embedder.embed(z), bank)


def test_overflowing_norms_raise():
    # a query or bank row whose norm overflowed read as a cosine of 0
    # with a zero gradient
    embedder = TanhEmbedder(u=np.eye(4), c=np.zeros(4))
    big, unit = np.full(4, 1e200), np.ones(4)
    window = np.ones((1, 1), dtype=bool)
    for z, row in ((big, unit), (unit, big)):
        bank = row[None, None]
        with pytest.raises(ValueError, match="non-finite norm"):
            latent_cosine_gradient(z[None, None], bank, window)
        with pytest.raises(ValueError, match="non-finite norm"):
            embedding_penalty_gradient(z[None, None], embedder, bank, window)
        with pytest.raises(ValueError, match="non-finite norm"):
            latent_cosine_loss(z, [row])
    with pytest.raises(ValueError, match="non-finite norm"):
        embedding_cosine_loss(unit, embedder, [big])  # e(z) is bounded: the bank row


def _windowed_kernels(rng):
    """Each kernel as f(queries, bank, window), with 3 queries and a bank
    of 6 rows, both over 2 lanes."""
    head = rng.standard_normal((7, 5))
    embedder = TanhEmbedder(u=rng.standard_normal((4, 6)), c=rng.standard_normal(4))
    gauss = rng.standard_normal((6, 2, 5))
    dists = softmax(rng.standard_normal((6, 2, 7)) * 2)
    return {
        "output": (repulsion_gradient, softmax(rng.standard_normal((3, 2, 7)) * 3), dists),
        "hidden": (lambda x, refs, w: hidden_gradient_projected(
            x, refs, lane_matvec(head, refs), w),
            rng.standard_normal((3, 2, 5)), gauss),
        "latent": (latent_cosine_gradient, rng.standard_normal((3, 2, 5)), gauss),
        "embedding": (lambda x, refs, w: embedding_penalty_gradient(x, embedder, refs, w),
            embedder.embed(rng.standard_normal((3, 2, 6))),
            embedder.embed(rng.standard_normal((6, 2, 6)))),
    }


@pytest.mark.parametrize("kernel", ["output", "hidden", "latent", "embedding"])
def test_windowed_kernels_match_a_call_on_the_window_rows(kernel):
    # query i's loss and gradient are those of a call on just its
    # window's rows: rows outside the window play no part
    rng = np.random.default_rng(5)
    f, x, refs = _windowed_kernels(rng)[kernel]
    for _ in range(20):
        window = rng.random((3, 6)) < 0.5
        window[np.arange(3), rng.integers(6, size=3)] = True
        loss, grad = f(x, refs, window)
        assert loss.shape == x.shape[:2]
        for i, rows in enumerate(window):
            one_loss, one_grad = f(x[i:i + 1], refs[rows], np.ones((1, rows.sum()), bool))
            _close(loss[i], one_loss[0])
            _close(grad[i], one_grad[0])


def test_shape_mismatches_raise():
    # queries over 2 lanes against a bank of 3, one vector or one lane
    # outside the query form, and windows that do not span (queries,
    # bank rows): no kernel reads any of them
    head = np.eye(2)
    embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
    bank = np.ones((4, 3, 2))
    kernels = (lambda x, w: repulsion_gradient(x, bank, w),
               lambda x, w: hidden_gradient_projected(x, bank, lane_matvec(head, bank), w),
               lambda x, w: latent_cosine_gradient(x, bank, w),
               lambda x, w: embedding_penalty_gradient(x, embedder, bank, w))
    for kernel in kernels:
        for x in (np.ones((1, 2, 2)), np.ones((3, 2)), np.ones(2)):
            with pytest.raises(ValueError, match="reference shape"):
                kernel(x, np.ones((1, 4), dtype=bool))
        for window in (np.ones((1, 3)), np.ones((2, 4)), np.ones(4), np.ones((1, 1, 4))):
            with pytest.raises(ValueError, match="window shape"):
                kernel(np.ones((1, 3, 2)), window.astype(bool))
    # a projected bank whose rows or lanes are not the bank's
    for projected in (np.ones((3, 3, 2)), np.ones((4, 2, 2)), np.ones((4, 3))):
        with pytest.raises(ValueError, match="projected bank shape"):
            hidden_gradient_projected(np.ones((1, 3, 2)), bank, projected,
                                      np.ones((1, 4), dtype=bool))
