"""Step-major lane decoding against the branch-major reference loop."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from branch_oracle import assert_same, oracle_multi_branch
from uag.penalty import (
    OutputProjection,
    PenaltyConfig,
    hidden_gradient_projected,
    latent_cosine_gradient,
)
from uag.process import (
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    lanes_per_call,
    load_bigram_model,
    multi_branch,
    sample_token,
)
from uag.schedule import ScheduleParams, default_schedule

FIXTURES = Path(__file__).parent / "fixtures"


def ar_cfg(steps=8, branches=5, capacity=16, **kwargs):
    return GenerationConfig(schedule=default_schedule(steps), penalty=PenaltyConfig(),
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
    "mean_aggregation": (TOY, replace(ar_cfg(), penalty=PenaltyConfig(
        local_aggregation="mean", global_aggregation="mean"))),
    "bigram": (load_bigram_model(FIXTURES / "bigram_chain.json"), ar_cfg(steps=6)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_lane_matches_the_branch_loop(case):
    model, cfg = CASES[case]
    assert_same(multi_branch(model, [[1, 2]], [cfg])[0], oracle_multi_branch(model, [1, 2], cfg))


def _lane_cfgs(base):
    """Lanes that differ in alpha, beta, l0, delta, temperature and kind."""
    steps = base.max_steps
    scheds = [ScheduleParams(alpha=a, beta=b, l0=l0, delta=d, horizon=steps, kind=k)
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


def test_a_lane_decodes_the_same_alone_and_beside_others():
    cfgs = _lane_cfgs(ar_cfg(branches=4, capacity=2))
    together = multi_branch(TOY, [[1]] * 4, cfgs, trace=False)
    for cfg, got in zip(cfgs, together):
        alone = multi_branch(TOY, [[1]], [cfg], trace=False)[0]
        assert [b.tokens for b in got] == [b.tokens for b in alone]
        assert all(b.trace == [] for b in got)


def diffusion_cfg(branches=4, capacity=16, uag=True):
    return GenerationConfig(schedule=default_schedule(10),
                            penalty=PenaltyConfig(),
                            temperature=1.0, max_steps=10, branches=branches, seed=4,
                            uag_enabled=uag, bank_capacity=capacity)


@pytest.mark.parametrize("cfg", [diffusion_cfg(), diffusion_cfg(5, 2),
                                 diffusion_cfg(uag=False)], ids=["full", "eviction", "off"])
def test_diffusion_matches_the_branch_loop(cfg):
    model = ToyDiffusion(6, 10, seed=8)
    assert_same(multi_branch(model, [None], [cfg])[0], oracle_multi_branch(model, None, cfg))


def test_lanes_may_differ_only_in_schedule_and_temperature():
    base = ar_cfg()
    for other in (replace(base, seed=4), replace(base, branches=2),
                  replace(base, bank_capacity=3), replace(base, uag_enabled=False),
                  replace(base, penalty=PenaltyConfig(epsilon=1e-3))):
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


def test_argmax_ties_go_to_the_lowest_index_in_every_lane():
    # lane 0 ties rows 0 and 2, lane 1 rows 1 and 2; tied rows differ
    refs = np.array([[[1.0, 1.0], [0.0, 2.0]],
                     [[0.0, 1.0], [1.0, 1.0]],
                     [[0.0, 3.0], [0.5, 2.0]]])
    h = np.array([[2.0, 1.0], [1.0, 0.5]])
    proj = OutputProjection(w=np.eye(2), b=np.zeros(2))
    grad = hidden_gradient_projected(h, refs, proj)
    np.testing.assert_array_equal(grad, [refs[0, 0], refs[1, 1]])
    # cosine ties: lane 0 rows 1 and 2 are parallel to z
    sims, _ = latent_cosine_gradient(np.array([[0.0, 1.0], [1.0, 0.0]]), refs,
                                     return_sims=True)
    assert sims[0, 1] == sims[0, 2]
    assert sims.argmax(axis=1).tolist() == [1, 1]


def test_lane_gradients_equal_one_vector_gradients():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6))
    refs = rng.standard_normal((4, 3, 6))
    proj = OutputProjection(w=rng.standard_normal((5, 6)), b=np.zeros(5))
    for grad_fn in (lambda v, bank: hidden_gradient_projected(v, bank, proj,
                                                              return_sims=True),
                    lambda v, bank: latent_cosine_gradient(v, bank, return_sims=True)):
        sims, grad = grad_fn(x, refs)
        for lane in range(3):
            one_sims, one_grad = grad_fn(x[lane], refs[:, lane])
            np.testing.assert_array_equal(sims[lane], one_sims)
            np.testing.assert_array_equal(grad[lane], one_grad)


def test_fifo_eviction_keeps_the_newest_branches_oldest_first():
    # Hidden states depend on the token path only, so each branch's can
    # be replayed; with mean aggregation, branch 3's global loss is the
    # mean similarity to branches 1 and 2 once branch 0 is evicted.
    cfg = replace(ar_cfg(steps=5, branches=4, capacity=2),
                  penalty=PenaltyConfig(global_aggregation="mean"))
    branches = multi_branch(TOY, [[1]], [cfg])[0]

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
        kept = np.mean([states[3][step] @ states[j][step] for j in (1, 2)])
        assert record.loss_global == pytest.approx(kept, abs=1e-12)
        with_evicted = np.mean([states[3][step] @ states[j][step] for j in (0, 1, 2)])
        evicted_shows |= abs(with_evicted - kept) > 1e-6
    assert evicted_shows

