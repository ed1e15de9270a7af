import tracemalloc

import numpy as np
import pytest

from uag import process
from uag.metrics import corpus_degeneration, self_bleu
from uag.process import GenerationConfig, ToyArModel, multi_branch
from uag.schedule import default_schedule
from uag.sweep import (
    NoAdmissiblePointError,
    ParamSpec,
    SweepPoint,
    SweepSpace,
    dominates,
    enumerate_vectors,
    pareto_front,
    run_sweep,
    select_best,
)


def point(run_id, diversity, degeneration):
    return SweepPoint(run_id=run_id, params={}, diversity=diversity,
                      degeneration=degeneration)


def brute_force_front(points):
    """O(n^2) dominance oracle."""
    keep = []
    for p in points:
        if not any(dominates(q, p) for q in points if q is not p):
            keep.append(p)
    return keep


def base_setup(steps=4, branches=3, seed=0):
    model = ToyArModel(8, 4, seed=1)
    cfg = GenerationConfig(schedule=default_schedule(steps),
                           temperature=1.0,
                           max_steps=steps, branches=branches, seed=seed)
    return model, cfg


class TestEnumerateVectors:
    def test_grid_row_major_order(self):
        model, cfg = base_setup()
        space = SweepSpace(params={
            "alpha": ParamSpec(grid=(0.5, 1.0)),
            "beta": ParamSpec(grid=(2.0, 3.0)),
        }, sampling="grid", budget=10)
        vectors = enumerate_vectors(space, cfg, np.random.default_rng(0))
        pairs = [(v["alpha"], v["beta"]) for v in vectors]
        assert pairs == [(0.5, 2.0), (0.5, 3.0), (1.0, 2.0), (1.0, 3.0)]
        assert all(v["l0"] == cfg.schedule.l0 for v in vectors)

    def test_grid_truncated_to_budget(self):
        model, cfg = base_setup()
        space = SweepSpace(params={"alpha": ParamSpec(grid=(1, 2, 3, 4))},
                           sampling="grid", budget=2)
        assert len(enumerate_vectors(space, cfg, np.random.default_rng(0))) == 2

    def test_random_is_seed_deterministic(self):
        model, cfg = base_setup()
        space = SweepSpace(params={
            "alpha": ParamSpec(low=0.0, high=2.0),
            "temperature": ParamSpec(grid=(0.5, 1.0, 1.5)),
        }, sampling="random", budget=7)
        a = enumerate_vectors(space, cfg, np.random.default_rng(42))
        b = enumerate_vectors(space, cfg, np.random.default_rng(42))
        assert a == b

    def test_grid_mode_requires_explicit_values(self):
        with pytest.raises(ValueError):
            SweepSpace(params={"alpha": ParamSpec(low=0.0, high=1.0)},
                       sampling="grid", budget=3)

    def test_space_validation(self):
        with pytest.raises(ValueError):
            SweepSpace(params={}, sampling="sobol", budget=1)
        with pytest.raises(ValueError):
            SweepSpace(params={}, budget=0)
        with pytest.raises(ValueError):
            SweepSpace(params={"gamma": ParamSpec(grid=(1,))})
        with pytest.raises(ValueError):
            ParamSpec(low=2.0, high=1.0)


class TestRunSweep:
    def test_singleton_matches_standalone_run(self):
        model, cfg = base_setup()
        space = SweepSpace(params={}, sampling="grid", budget=1)
        points = run_sweep(space, cfg, model, [[1, 2]], np.random.default_rng(0))
        assert len(points) == 1
        branches = multi_branch(model, [[1, 2]], [cfg])[0]
        corpus = [b.tokens for b in branches]
        assert points[0].diversity == pytest.approx(1.0 - self_bleu(corpus))
        assert points[0].degeneration == pytest.approx(corpus_degeneration(corpus))

    def test_grid_two_by_two(self):
        model, cfg = base_setup()
        space = SweepSpace(params={
            "alpha": ParamSpec(grid=(0.5, 2.0)),
            "beta": ParamSpec(grid=(0.5, 2.0)),
        }, sampling="grid", budget=16)
        points = run_sweep(space, cfg, model, [[1]], np.random.default_rng(0))
        assert len(points) == 4
        assert [p.run_id for p in points] == [0, 1, 2, 3]

    def test_reproducible_under_seed(self):
        model, cfg = base_setup()
        space = SweepSpace(params={"alpha": ParamSpec(low=0.0, high=3.0)},
                           sampling="random", budget=3)
        a = run_sweep(space, cfg, model, [[1]], np.random.default_rng(7))
        b = run_sweep(space, cfg, model, [[1]], np.random.default_rng(7))
        assert a == b

    def test_points_split_across_calls_score_as_in_one_call(self, monkeypatch):
        model, cfg = base_setup()
        space = SweepSpace(params={"alpha": ParamSpec(low=0.0, high=3.0),
                                   "temperature": ParamSpec(grid=(0.5, 1.0))},
                           sampling="random", budget=5)
        together = run_sweep(space, cfg, model, [[1], [2, 3]], np.random.default_rng(7))
        # room for one point (two lanes) per decode, then for three points
        for floats in (2 * cfg.branches * 12, 6 * cfg.branches * 12):
            monkeypatch.setattr(process, "LANE_FLOATS", floats)
            assert run_sweep(space, cfg, model, [[1], [2, 3]],
                             np.random.default_rng(7)) == together

    def test_a_sweep_builds_no_branch(self, monkeypatch):
        # the sweep scores decode_lanes' token array; the record view is
        # for generate's trace
        model, cfg = base_setup()
        space = SweepSpace(params={"alpha": ParamSpec(grid=(0.5, 2.0))}, budget=2)
        want = run_sweep(space, cfg, model, [[1], [2, 3]], np.random.default_rng(0))

        def no_branch(*args):
            raise AssertionError("run_sweep built a Branch")

        monkeypatch.setattr(process, "generate_branch", no_branch)
        assert run_sweep(space, cfg, model, [[1], [2, 3]], np.random.default_rng(0)) == want

    def test_peak_memory_does_not_grow_with_the_budget(self):
        # lanes_per_call gives 7 lanes here, so a budget of 7 points
        # decodes at once and 56 in eight decodes inside one decode_lanes
        # call; decoding all 56 lanes at once would raise the peak by
        # about 7 MB
        model = ToyArModel(1024, 64, seed=3)
        cfg = GenerationConfig(schedule=default_schedule(6),
                               temperature=0.5, max_steps=6, branches=4, seed=1)
        assert process.lanes_per_call(model, cfg) == 7
        peaks = []
        for budget in (7, 56):
            space = SweepSpace(params={"alpha": ParamSpec(low=0.0, high=2.0)},
                               sampling="random", budget=budget)
            tracemalloc.start()
            try:
                run_sweep(space, cfg, model, [[1, 2]], np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**18

    def test_empty_prompts_rejected(self):
        model, cfg = base_setup()
        space = SweepSpace(params={}, sampling="grid", budget=1)
        with pytest.raises(ValueError):
            run_sweep(space, cfg, model, [], np.random.default_rng(0))


class TestParetoFront:
    def test_single_point(self):
        front = pareto_front([point(0, 0.5, 0.1)])
        assert [p.run_id for p in front] == [0]

    def test_dominated_point_removed(self):
        front = pareto_front([point(0, 0.5, 0.1), point(1, 0.4, 0.2)])
        assert [p.run_id for p in front] == [0]

    def test_objective_duplicates_both_retained(self):
        front = pareto_front([point(0, 0.5, 0.1), point(1, 0.5, 0.1),
                              point(2, 0.2, 0.3)])
        assert sorted(p.run_id for p in front) == [0, 1]

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            points = [point(i, float(rng.uniform(0, 1)),
                            float(rng.uniform(0, 1)))
                      for i in range(200)]
            fast = {p.run_id for p in pareto_front(points)}
            slow = {p.run_id for p in brute_force_front(points)}
            assert fast == slow

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(13)
        values = [0.0, 0.25, 0.5, 0.75, 1.0]
        points = [point(i, float(rng.choice(values)), float(rng.choice(values)))
                  for i in range(300)]
        fast = {p.run_id for p in pareto_front(points)}
        slow = {p.run_id for p in brute_force_front(points)}
        assert fast == slow

    def test_front_is_dominance_free(self):
        rng = np.random.default_rng(17)
        points = [point(i, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                  for i in range(120)]
        front = pareto_front(points)
        for p in front:
            assert not any(dominates(q, p) for q in points if q.run_id != p.run_id)


class TestSelectBest:
    def test_single_admissible(self):
        front = (point(0, 0.8, 0.2),)
        assert select_best(front).run_id == 0

    def test_all_exceed_cap(self):
        front = (point(0, 0.8, 0.95), point(1, 0.9, 0.99))
        with pytest.raises(NoAdmissiblePointError):
            select_best(front)

    def test_tie_broken_by_lower_degeneration(self):
        front = (point(0, 0.8, 0.5), point(1, 0.8, 0.3), point(2, 0.6, 0.1))
        assert select_best(front).run_id == 1

    def test_invariant_to_ordering(self):
        rng = np.random.default_rng(19)
        pts = [point(i, float(rng.uniform(0, 1)), float(rng.uniform(0, 0.89)))
               for i in range(30)]
        baseline = select_best(tuple(pts))
        for _ in range(10):
            perm = list(pts)
            rng.shuffle(perm)
            assert select_best(tuple(perm)) == baseline
