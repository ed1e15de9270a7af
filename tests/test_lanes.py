"""Step-major lane decoding against the branch-major reference loop."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from branch_oracle import assert_same, oracle_multi_branch
from one_lane import embedding, hidden, latent, repulsion
from uag import process
from uag.penalty import (
    BLOCK_FLOATS,
    TanhEmbedder,
    embedding_penalty_gradient,
    hidden_gradient_projected,
    lane_matvec,
    latent_cosine_gradient,
    repulsion_gradient,
    softmax,
)
from uag.process import (
    BigramModel,
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    decode_lanes,
    lanes_per_call,
    multi_branch,
    sample_token,
)
from uag.schedule import ScheduleParams, default_schedule, schedule_weights

FIXTURES = Path(__file__).parent / "fixtures"


def ar_cfg(steps=8, branches=5, capacity=16, **kwargs):
    return GenerationConfig(schedule=default_schedule(steps),
                            temperature=kwargs.pop("temperature", 0.5),
                            max_steps=steps, branches=branches, seed=3,
                            bank_capacity=capacity, **kwargs)


TOY = ToyArModel(24, 8, seed=5)
CASES = {
    "eviction": (TOY, ar_cfg(branches=6, capacity=2)),
    "capacity_one": (TOY, ar_cfg(branches=4, capacity=1)),
    "no_eviction": (TOY, ar_cfg()),
    "uag_off": (TOY, ar_cfg(uag_enabled=False)),
    "one_branch": (TOY, ar_cfg(branches=1)),
    "bigram": (BigramModel(**json.loads((FIXTURES / "bigram_chain.json").read_text())),
               ar_cfg(steps=6)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_lane_matches_the_branch_loop(case):
    model, cfg = CASES[case]
    assert_same(multi_branch(model, [[1, 2]], [cfg])[0], oracle_multi_branch(model, [1, 2], cfg))


def _lane_cfgs(base):
    """Lanes that differ in alpha, beta, l0, delta, temperature and kind."""
    scheds = [ScheduleParams(alpha=a, beta=b, l0=l0, delta=d, kind=k)
              for a, b, l0, d, k in ((2.0, 1.0, 4.0, 0.25, "logistic"),
                                     (0.5, 2.0, 2.0, 1.0, "logistic"),
                                     (4.0, 0.25, 6.0, 0.1, "linear"),
                                     (1.0, 1.0, 3.0, 0.5, "constant"))]
    temps = (0.5, 0.1, 1.0, 0.7)
    return [replace(base, schedule=s, temperature=t) for s, t in zip(scheds, temps)]


@pytest.mark.parametrize("capacity", [2, 16])
def test_lanes_with_different_schedules_match_the_branch_loop(capacity):
    cfgs = _lane_cfgs(ar_cfg(branches=5, capacity=capacity))
    prompts = [[1], [2, 3], [], [4, 4, 4]]
    lanes = multi_branch(TOY, prompts, cfgs)
    for prompt, cfg, got in zip(prompts, cfgs, lanes):
        assert_same(got, oracle_multi_branch(TOY, prompt, cfg))


def test_large_vocab_lanes_match_the_branch_loop():
    model = ToyArModel(4096, 64, seed=2)
    cfgs = _lane_cfgs(ar_cfg(steps=5, branches=4, capacity=2))[:2]
    for cfg, got in zip(cfgs, multi_branch(model, [[7], [9]], cfgs)):
        assert_same(got, oracle_multi_branch(model, [7] if cfg is cfgs[0] else [9], cfg))


def test_model_step_keeps_the_projected_rows_of_every_branch():
    # the bench's large shape, V=4096 and d=256, 5 branches over 3 bank
    # slots: the W h rows the hidden penalty gathers are the per-lane
    # products of each branch's hidden state, and the logits formed from
    # them are the penalty-off logits bit for bit
    model = ToyArModel(4096, 256, seed=2)
    kept, step = [], model.step

    def recording(h, last_token, out=None, projected=None):
        y, h_new = step(h, last_token, out=out, projected=projected)
        kept.append((projected.copy(), h_new.copy(), y.copy()))
        return y, h_new

    model.step = recording
    multi_branch(model, [[7, 3]], [ar_cfg(steps=3, branches=5, capacity=3)])
    assert len(kept) == 3
    for wh, h, y in kept:
        assert wh.shape == (5, 1, 4096)
        for j in range(5):
            np.testing.assert_array_equal(wh[j], lane_matvec(model.out_w, h[j]))
        np.testing.assert_array_equal(y, lane_matvec(model.out_w, h) + model.out_b)


def test_a_lane_decodes_the_same_alone_and_beside_others():
    cfgs = _lane_cfgs(ar_cfg(branches=4, capacity=2))
    together = multi_branch(TOY, [[1]] * 4, cfgs)
    for cfg, got in zip(cfgs, together):
        # Branch equality covers tokens, trace records and flops exactly
        assert got == multi_branch(TOY, [[1]], [cfg])[0]


def test_a_lane_with_a_blocked_head_decodes_the_same_alone_and_beside_others():
    # lane_matvec multiplies this 2700 x 75 head in four row blocks, the
    # last one ragged; each block still serves every lane one product each
    model = ToyArModel(2700, 75, seed=4)
    assert model.out_w.size > 3 * BLOCK_FLOATS
    cfgs = _lane_cfgs(ar_cfg(steps=6, branches=4, capacity=2))
    together = multi_branch(model, [[1]] * 4, cfgs)
    for cfg, got in zip(cfgs, together):
        # Branch equality covers tokens, trace records and flops exactly
        assert got == multi_branch(model, [[1]], [cfg])[0]


def test_one_lane_per_decode_returns_the_same_branches(monkeypatch):
    cfgs = _lane_cfgs(ar_cfg(branches=4, capacity=2))
    prompts = [[1], [2, 3], [], [1]]
    together = multi_branch(TOY, prompts, cfgs)
    monkeypatch.setattr(process, "LANE_FLOATS", 1)
    assert lanes_per_call(TOY, cfgs[0]) == 1
    # Branch equality covers tokens, trace records and flops exactly
    assert multi_branch(TOY, prompts, cfgs) == together


def test_decode_lanes_returns_lane_first_arrays():
    cfgs = _lane_cfgs(ar_cfg(branches=4, capacity=2))
    outputs, losses, weights, flops = decode_lanes(TOY, [[1], [2, 3], [], [1]], cfgs)
    assert (outputs.shape, outputs.dtype) == ((4, 4, 8), np.intp)
    assert (losses.shape, losses.dtype) == ((4, 4, 8, 3), np.float64)
    assert (weights.shape, weights.dtype) == ((4, 8, 2), np.float64)
    assert (flops.shape, flops.dtype) == ((4,), np.int64)
    assert flops[0] == 0 and (flops[1:] > 0).all()
    outputs, losses, weights, flops = decode_lanes(DIFFUSION, [None] * 3, diffusion_lanes(5, 2))
    assert (outputs.shape, outputs.dtype) == ((3, 5, 6), np.float64)
    assert (losses.shape, weights.shape, flops.shape) == ((3, 5, 10, 3), (3, 10, 2), (5,))


@pytest.mark.parametrize("case", ["eviction", "uag_off", "bigram", "diffusion"])
def test_multi_branch_is_the_record_view_of_decode_lanes(case):
    if case == "diffusion":
        model, prompts, cfgs = DIFFUSION, [None] * 3, diffusion_lanes(5, 2)
    else:
        model, cfg = CASES[case]
        prompts, cfgs = [[1], [2, 3], [], [1]], _lane_cfgs(cfg)
    outputs, losses, weights, flops = decode_lanes(model, prompts, cfgs)
    lanes = multi_branch(model, prompts, cfgs)
    assert [len(branches) for branches in lanes] == [outputs.shape[1]] * len(outputs)
    for lane, branches in enumerate(lanes):
        for b, branch in enumerate(branches):
            if branch.tokens is None:
                np.testing.assert_array_equal(branch.final_latent, outputs[lane, b])
            else:
                assert branch.tokens == outputs[lane, b].tolist()
            assert [r.step for r in branch.trace] == list(range(1, losses.shape[2] + 1))
            assert [r[1:4] for r in branch.trace] == list(map(tuple, losses[lane, b].tolist()))
            assert [r[4:6] for r in branch.trace] == list(map(tuple, weights[lane].tolist()))
            assert {r.flops for r in branch.trace} == {flops[b]}
            assert branch.total_flops == losses.shape[2] * (model.step_flops() + flops[b])


@pytest.mark.parametrize("kind", ["ar", "diffusion"])
def test_one_lane_per_decode_returns_the_same_arrays(monkeypatch, kind):
    model, prompts, cfgs = ((TOY, [[1], [2, 3], [], [1]], _lane_cfgs(ar_cfg(capacity=2)))
                            if kind == "ar" else (DIFFUSION, [None] * 3, diffusion_lanes(5, 2)))
    together = decode_lanes(model, prompts, cfgs)
    monkeypatch.setattr(process, "LANE_FLOATS", 1)
    assert lanes_per_call(model, cfgs[0]) == 1
    for got, want in zip(decode_lanes(model, prompts, cfgs), together, strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def diffusion_cfg(branches=4, capacity=16, uag=True):
    return GenerationConfig(schedule=default_schedule(10),
                            temperature=1.0, max_steps=10, branches=branches, seed=4,
                            uag_enabled=uag, bank_capacity=capacity)


@pytest.mark.parametrize("cfg", [diffusion_cfg(), diffusion_cfg(5, 2),
                                 diffusion_cfg(uag=False)], ids=["full", "eviction", "off"])
def test_diffusion_matches_the_branch_loop(cfg):
    model = ToyDiffusion(6, 10, seed=8)
    assert_same(multi_branch(model, [None], [cfg])[0], oracle_multi_branch(model, None, cfg))


DIFFUSION = ToyDiffusion(6, 10, seed=8)


def diffusion_lanes(branches, capacity, uag=True):
    """Three lanes whose schedules differ in kind, alpha and beta."""
    base = diffusion_cfg(branches, capacity, uag)
    return [replace(base, schedule=ScheduleParams(alpha=a, beta=b, l0=5.0, delta=0.5,
                                                  kind=k))
            for a, b, k in ((2.0, 1.0, "logistic"), (0.5, 3.0, "linear"),
                            (4.0, 0.25, "constant"))]


@pytest.mark.parametrize("uag", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("capacity", [1, 2, 7, 16])
@pytest.mark.parametrize("branches", [1, 2, 8])
def test_batched_diffusion_lanes_match_the_branch_loop(branches, capacity, uag):
    cfgs = diffusion_lanes(branches, capacity, uag)
    for cfg, got in zip(cfgs, multi_branch(DIFFUSION, [None] * 3, cfgs)):
        assert_same(got, oracle_multi_branch(DIFFUSION, None, cfg))


def test_identical_initial_latents_match_the_branch_loop():
    # Every branch of the given-latent lanes starts from the same latent,
    # so each bank ties in every row and the argmax takes the lowest.
    # Between identical latents the penalty gradient is 0 up to rounding,
    # which normalize_gradient scales by 1/sqrt(epsilon): at the default
    # epsilon the branches split on rounding alone (the parent loop and
    # the oracle differ there by up to 2.7e-6), so epsilon is 1 here.
    init = np.linspace(-1.0, 1.0, 6)
    prompts = [init, None, init]
    cfgs = [replace(c, epsilon=1.0) for c in diffusion_lanes(4, 2)]
    for prompt, cfg, got in zip(prompts, cfgs, multi_branch(DIFFUSION, prompts, cfgs)):
        assert_same(got, oracle_multi_branch(DIFFUSION, prompt, cfg))


def test_equal_schedules_are_weighted_once(monkeypatch):
    # two lanes with equal schedules held in two objects, as a sweep over
    # temperature alone makes them
    cfg = ar_cfg(steps=6)
    cfgs = [cfg, replace(cfg, schedule=replace(cfg.schedule), temperature=0.1)]
    assert cfgs[0].schedule is not cfgs[1].schedule
    calls = []
    monkeypatch.setattr(process, "schedule_weights",
                        lambda *args: calls.append(args) or schedule_weights(*args))
    lanes = multi_branch(TOY, [[1], [2]], cfgs)
    assert len(calls) == cfg.max_steps
    for prompt, cfg, got in zip([[1], [2]], cfgs, lanes):
        assert_same(got, oracle_multi_branch(TOY, prompt, cfg))


def test_a_diffusion_lane_decodes_the_same_alone_and_beside_others():
    cfgs = diffusion_lanes(5, 2)
    for cfg, got in zip(cfgs, multi_branch(DIFFUSION, [None] * 3, cfgs)):
        alone = multi_branch(DIFFUSION, [None], [cfg])[0]
        for a, b in zip(got, alone):
            np.testing.assert_array_equal(a.final_latent, b.final_latent)
            assert (a.trace, a.total_flops) == (b.trace, b.total_flops)


def test_a_zero_diffusion_latent_still_has_no_cosine():
    with pytest.raises(ValueError, match="cosine undefined"):
        multi_branch(DIFFUSION, [np.zeros(6)], diffusion_lanes(3, 2)[:1])


def test_non_finite_diffusion_names_the_weights_of_its_lane():
    cfgs = diffusion_lanes(3, 2)[:2]
    cfgs[1] = replace(cfgs[1], schedule=replace(cfgs[1].schedule, alpha=1e308))
    with pytest.raises(ValueError, match=r"non-finite .* at step \d+ under") as err:
        multi_branch(DIFFUSION, [None] * 2, cfgs)
    step = int(re.search(r"at step (\d+)", str(err.value)).group(1))
    assert str(schedule_weights(step, cfgs[1].schedule, cfgs[1].max_steps)) in str(err.value)


def test_windowed_cosine_ties_go_to_the_lowest_row_in_the_window():
    # query 1 sees rows 1 and 2, which tie and differ; row 0, outside its
    # window, is more similar to it
    refs = np.array([[[1.0, 0.0]], [[1.0, 1.0]], [[1.0, -1.0]]])
    z = np.array([[[1.0, 0.1]], [[1.0, 0.0]]])
    window = np.array([[True, True, False], [False, True, True]])
    loss, grad = latent_cosine_gradient(z, refs, window)
    assert loss[1, 0] == latent(z[1, 0], refs[1])[0] == latent(z[1, 0], refs[2])[0] < 1.0
    for q in range(2):
        one_loss, one_grad = latent(z[q, 0], refs[window[q], 0])
        np.testing.assert_allclose(loss[q, 0], one_loss, rtol=0, atol=1e-15)
        np.testing.assert_allclose(grad[q, 0], one_grad, rtol=0, atol=1e-15)
    np.testing.assert_allclose(grad[1, 0], latent(z[1, 0], refs[1])[1], rtol=0, atol=1e-15)
    assert not np.allclose(grad[1, 0], latent(z[1, 0], refs[2])[1])
    with pytest.raises(ValueError, match="window shape"):
        latent_cosine_gradient(z, refs, window[:, :2])


def test_lanes_may_differ_only_in_schedule_and_temperature():
    base = ar_cfg()
    for other in (replace(base, seed=4), replace(base, branches=2),
                  replace(base, bank_capacity=3), replace(base, uag_enabled=False),
                  replace(base, epsilon=1e-3)):
        with pytest.raises(ValueError):
            multi_branch(TOY, [[1], [1]], [base, other])
    with pytest.raises(ValueError):
        multi_branch(TOY, [[1]], [base, base])


def test_sampler_draws_each_lane_as_one_vector_would():
    # (lanes, vocab) logits, one temperature per lane, one uniform shared
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 12)) * 3
    temps = np.array([0.1, 0.5, 1.0, 2.0])
    for seed in (9, 10, 11):
        got = sample_token(logits, temps, np.random.default_rng(seed))
        assert got == [sample_token(row, t, np.random.default_rng(seed))
                       for row, t in zip(logits, temps)]
        assert all(type(tok) is int for tok in got)


def test_sampler_rejects_bad_logits_and_temperatures():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_token(np.array([[0.0, 1.0], [np.nan, 0.0]]), 1.0, rng)
    with pytest.raises(ValueError):
        sample_token(np.array([[0.0, 1.0], [np.inf, 0.0]]), 1.0, rng)
    with pytest.raises(ValueError):
        sample_token(np.zeros((2, 3)), np.array([1.0, 0.0]), rng)
    with pytest.raises(ValueError):
        sample_token(np.zeros((2, 3)), np.array([1.0, -1.0]), rng)


def test_sampler_names_the_temperature_that_overflows_the_logits():
    # finite logits over a tiny positive temperature overflow to inf;
    # their softmax would be NaN, which used to sample token 0
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="temperature 1e-310"):
        sample_token(np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([1.0, 1e-310]), rng)
    with pytest.raises(ValueError, match="temperature 1e-310"):
        sample_token(np.array([0.0, 1.0]), 1e-310, rng)


def test_argmax_ties_go_to_the_lowest_index_in_every_lane():
    # lane 0 ties rows 0 and 2, lane 1 rows 1 and 2; tied rows differ
    refs = np.array([[[1.0, 1.0], [0.0, 2.0]],
                     [[0.0, 1.0], [1.0, 1.0]],
                     [[0.0, 3.0], [0.5, 2.0]]])
    h = np.array([[[2.0, 1.0], [1.0, 0.5]]])
    head = np.eye(2)
    window = np.ones((1, 3), dtype=bool)
    _, grad = hidden_gradient_projected(h, refs, lane_matvec(head, refs), window)
    np.testing.assert_array_equal(grad[0], [refs[0, 0], refs[1, 1]])
    # cosine ties: the same rows tie at cosine 1/sqrt(2) to z, each pair
    # mirrored about z, so their gradients differ
    refs = np.array([[[1.0, 1.0], [0.0, 1.0]],
                     [[0.0, 1.0], [1.0, -1.0]],
                     [[1.0, -1.0], [1.0, 1.0]]])
    z = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    loss, grad = latent_cosine_gradient(z, refs, window)
    for lane, row in enumerate((0, 1)):
        one_loss, one_grad = latent(z[0, lane], refs[row:row + 1, lane])
        assert loss[0, lane] == one_loss
        np.testing.assert_array_equal(grad[0, lane], one_grad)
        assert not np.allclose(grad[0, lane], latent(z[0, lane], refs[2:, lane])[1])


def test_lane_gradients_equal_one_vector_gradients():
    # each lane of a call, against the same vector as the one lane of a call
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6))
    refs = rng.standard_normal((4, 3, 6))
    head = rng.standard_normal((5, 6))
    embedder = TanhEmbedder(u=rng.standard_normal((6, 2)), c=rng.standard_normal(6))
    z = rng.standard_normal((3, 2))
    window = np.ones((1, 4), dtype=bool)
    cases = [(repulsion_gradient(softmax(x)[None], refs, window),
              lambda lane: repulsion(x[lane], refs[:, lane])),
             (hidden_gradient_projected(x[None], refs, lane_matvec(head, refs), window),
              lambda lane: hidden(x[lane], refs[:, lane], head)),
             (latent_cosine_gradient(x[None], refs, window),
              lambda lane: latent(x[lane], refs[:, lane])),
             (embedding_penalty_gradient(embedder.embed(z)[None], embedder, refs, window),
              lambda lane: embedding(z[lane], embedder, refs[:, lane]))]
    for (loss, grad), one in cases:
        for lane in range(3):
            one_loss, one_grad = one(lane)
            assert loss[0, lane] == one_loss
            np.testing.assert_array_equal(grad[0, lane], one_grad)


@pytest.mark.parametrize("shape", [(7, 32, 64), (4, 1, 4096)], ids=["7x32x64", "4x1x4096"])
def test_query_softmax_equals_one_query_softmax(shape):
    # the token step takes softmax(y[1:]) of every branch at once and
    # hands each branch its own row, which must be the very softmax of
    # that branch's logits alone
    y = np.random.default_rng(6).standard_normal(shape) * 3
    batched = softmax(y)
    for i in range(len(y)):
        np.testing.assert_array_equal(batched[i], softmax(y[i:i + 1])[0])


def test_fifo_eviction_keeps_the_newest_branches_oldest_first():
    # Hidden states depend on the token path only, so each branch's can
    # be replayed; branch 3's global loss is its max similarity to
    # branches 1 and 2 once branch 0 is evicted.
    branches = multi_branch(TOY, [[1]], [ar_cfg(steps=5, branches=4, capacity=2)])[0]

    def hiddens(tokens):
        h, last, out = TOY.advance(TOY.init_hidden, 1), 1, []
        for tok in tokens:
            h = TOY.advance(h, last)
            out.append(h)
            last = tok
        return out

    states = [hiddens(b.tokens) for b in branches]
    evicted_shows = False
    for step, record in enumerate(branches[3].trace):
        kept = max(states[3][step] @ states[j][step] for j in (1, 2))
        assert record.loss_global == pytest.approx(kept, abs=1e-12)
        with_evicted = max(states[3][step] @ states[j][step] for j in (0, 1, 2))
        evicted_shows |= abs(with_evicted - kept) > 1e-6
    assert evicted_shows

