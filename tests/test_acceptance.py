"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints
a single pass/fail line (visible under pytest -s).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
from branch_oracle import ref_local_loss
from one_lane import embedding, latent, repulsion

from uag import judge_client
from uag.cli import main
from uag.judge_client import JudgeConfig, JudgeError, judge_corpus
from uag.metrics import (
    SMOOTHING_EPS,
    distinct_n,
    mean_pairwise_cosine,
    rouge_l,
    self_bleu,
)
from uag.penalty import (
    TanhEmbedder,
    flops_estimate,
    softmax,
)
from uag.process import (
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    multi_branch,
)
from uag.schedule import (
    ScheduleParams,
    default_schedule,
    logistic_gate,
    schedule_weights,
)
from uag.sweep import SweepPoint, pareto_front


def criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (fn(x + step) - fn(x - step)) / (2 * h)
    return out


def rel_err(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)


def margin(scores):
    ordered = np.sort(np.asarray(scores))
    return ordered[-1] - ordered[-2] if ordered.size > 1 else np.inf


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(910)
    checked = 0
    while checked < 100:  # repulsion
        v = int(rng.integers(2, 65))
        y = rng.standard_normal(v) * 2
        bank = [softmax(rng.standard_normal(v)) for _ in range(rng.integers(1, 5))]
        if margin([softmax(y) @ q for q in bank]) < 1e-3:
            continue
        err = rel_err(repulsion(y, bank)[1],
                      fd_gradient(lambda x: ref_local_loss(x, bank), y))
        worst = max(worst, err)
        checked += 1
    checked = 0
    while checked < 100:  # latent cosine
        m = int(rng.integers(2, 65))
        z = rng.standard_normal(m)
        bank = [rng.standard_normal(m) for _ in range(rng.integers(1, 5))]
        sims = [z @ b / (np.linalg.norm(z) * np.linalg.norm(b)) for b in bank]
        if margin(sims) < 1e-3:
            continue

        def cos_loss(x):
            return max(x @ b / (np.linalg.norm(x) * np.linalg.norm(b))
                       for b in bank)

        err = rel_err(latent(z, bank)[1], fd_gradient(cos_loss, z))
        worst = max(worst, err)
        checked += 1
    checked = 0
    while checked < 100:  # embedding surrogate
        m = int(rng.integers(2, 17))
        e_dim = int(rng.integers(2, 9))
        emb = TanhEmbedder(u=rng.standard_normal((e_dim, m)),
                           c=rng.standard_normal(e_dim) * 0.2)
        z = rng.standard_normal(m)
        bank = [rng.standard_normal(e_dim) for _ in range(rng.integers(1, 4))]
        e = emb.embed(z)
        sims = [e @ b / (np.linalg.norm(e) * np.linalg.norm(b)) for b in bank]
        if margin(sims) < 1e-3:
            continue

        def emb_loss(x):
            ex = emb.embed(x)
            return max(ex @ b / (np.linalg.norm(ex) * np.linalg.norm(b))
                       for b in bank)

        err = rel_err(embedding(z, emb, bank)[1],
                      fd_gradient(emb_loss, z))
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - start
    criterion("1 gradient correctness (300 finite-difference checks)",
              worst < 1e-5 and elapsed < 10.0,
              f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_monotonic_decrease():
    start = time.perf_counter()
    rng = np.random.default_rng(920)
    eta = 1e-4
    decreases = 0
    bad_norms = []
    for _ in range(1000):
        v = int(rng.integers(4, 33))
        d = int(rng.integers(3, 9))
        y = rng.standard_normal(v) * 2
        out_bank = [softmax(rng.standard_normal(v))
                    for _ in range(rng.integers(1, 5))]
        h = rng.standard_normal(d)
        hid_bank = [rng.standard_normal(d) for _ in range(rng.integers(1, 4))]
        w_local = float(rng.uniform(0, 2))
        w_global = float(rng.uniform(0, 2))
        g_hid = max(h @ b for b in hid_bank)  # constant under logit updates

        def loss(x):
            return (w_local * ref_local_loss(x, out_bank)
                    + w_global * g_hid)

        grad = w_local * repulsion(y, out_bank)[1]
        if loss(y - eta * grad) <= loss(y):
            decreases += 1
        else:
            bad_norms.append(np.linalg.norm(grad))
    elapsed = time.perf_counter() - start
    ok = (decreases >= 990 and all(n < 1e-8 for n in bad_norms)
          and elapsed < 10.0)
    criterion("2 monotonic decrease (raw gradient, eta=1e-4)", ok,
              f"{decreases}/1000 decreased, {elapsed:.1f}s")


def test_criterion_3_schedule_identities():
    exact_center = logistic_gate(17.0, 0.8024, 17.0) == 0.5
    rng = np.random.default_rng(930)
    sym_worst = max(
        abs(logistic_gate(38 + x, 0.8024, 38) + logistic_gate(38 - x, 0.8024, 38)
            - 1.0)
        for x in rng.uniform(-80, 80, size=1000))
    lin = ScheduleParams(alpha=0.3395, beta=1.3339, l0=0, delta=0, kind="linear")
    first = schedule_weights(1, lin, 200)
    last = schedule_weights(200, lin, 200)
    endpoints = (first.w_local == 0.3395 and first.w_global == 0.0
                 and last.w_local == 0.0 and last.w_global == 1.3339)
    criterion("3 schedule identities", exact_center and sym_worst < 1e-12
              and endpoints,
              f"center exact={exact_center}, symmetry worst {sym_worst:.1e}, "
              f"linear endpoints exact={endpoints}")


def test_criterion_4_ar_directional_diversity():
    start = time.perf_counter()
    reductions = []
    d2_gains = []
    for seed in range(20):
        model = ToyArModel(64, 32, seed=7000 + seed)
        cfg = GenerationConfig(schedule=default_schedule(40), max_steps=40,
                               branches=8, seed=seed, uag_enabled=True)
        uag_corpus = [b.tokens for b in multi_branch(model, [[1]], [cfg])[0]]
        naive_corpus = [b.tokens for b in multi_branch(
            model, [[1]], [replace(cfg, uag_enabled=False)])[0]]
        bleu_uag = self_bleu(uag_corpus)
        bleu_naive = self_bleu(naive_corpus)
        reductions.append((bleu_naive - bleu_uag) / bleu_naive)
        d2_uag = distinct_n(uag_corpus, 2)
        d2_naive = distinct_n(naive_corpus, 2)
        d2_gains.append((d2_uag - d2_naive) / d2_naive)
    elapsed = time.perf_counter() - start
    med_red = float(np.median(reductions))
    med_d2 = float(np.median(d2_gains))
    ok = med_red >= 0.10 and med_d2 >= 0.05 and elapsed < 60.0
    criterion("4 token-process diversity gain (20 seeds)", ok,
              f"median self-BLEU reduction {med_red:.1%}, "
              f"median distinct-2 gain {med_d2:.1%}, {elapsed:.1f}s")


def test_criterion_5_diffusion_diversity():
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        model = ToyDiffusion(16, 50, seed=3000 + seed)
        cfg = GenerationConfig(
            schedule=default_schedule(50),
            max_steps=50, branches=8, seed=seed, uag_enabled=True)
        cos_uag = mean_pairwise_cosine(
            [b.final_latent for b in multi_branch(model, [None], [cfg])[0]])
        cos_naive = mean_pairwise_cosine(
            [b.final_latent for b in multi_branch(
                model, [None], [replace(cfg, uag_enabled=False)])[0]])
        wins += cos_uag < cos_naive
    elapsed = time.perf_counter() - start
    ok = wins >= 16 and elapsed < 60.0
    criterion("5 diffusion latent diversity gain (20 seeds)", ok,
              f"lower pairwise cosine in {wins}/20 seeds, {elapsed:.1f}s")


def _brute_force_front(points):
    def dominates(a, b):
        return (a.diversity >= b.diversity and a.degeneration <= b.degeneration
                and (a.diversity > b.diversity
                     or a.degeneration < b.degeneration))

    return {p.run_id for p in points
            if not any(dominates(q, p) for q in points if q is not p)}


def _bleu_brute_force(corpus, max_n=4):
    scores = []
    for i in range(len(corpus)):
        hyp = corpus[i]
        refs = corpus[:i] + corpus[i + 1:]
        logs = []
        for n in range(1, max_n + 1):
            grams = [tuple(hyp[k:k + n]) for k in range(len(hyp) - n + 1)]
            if not grams:
                continue
            clipped = 0
            for g in set(grams):
                clipped += min(grams.count(g),
                               max([tuple(r[k:k + n])
                                    for k in range(len(r) - n + 1)].count(g)
                                   for r in refs))
            p = clipped / len(grams) if clipped else SMOOTHING_EPS / len(grams)
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


def _lcs_recursive(a, b):
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(960)
    points = [SweepPoint(run_id=i, params={},
                         diversity=float(rng.uniform(0, 1)),
                         degeneration=float(rng.uniform(0, 1)))
              for i in range(500)]
    pareto_ok = ({p.run_id for p in pareto_front(points)}
                 == _brute_force_front(points))
    rouge_worst = 0.0
    for _ in range(200):
        a = tuple(rng.integers(0, 5, size=rng.integers(1, 13)))
        b = tuple(rng.integers(0, 5, size=rng.integers(1, 13)))
        lcs = _lcs_recursive(a, b)
        expected = 0.0
        if lcs > 0:
            p, r = lcs / len(b), lcs / len(a)
            expected = 2 * p * r / (p + r)
        rouge_worst = max(rouge_worst, abs(rouge_l(list(a), list(b)) - expected))
    bleu_worst = 0.0
    for _ in range(40):
        corpus = [list(rng.integers(0, 6, size=rng.integers(2, 11)))
                  for _ in range(rng.integers(2, 6))]
        bleu_worst = max(bleu_worst,
                         abs(self_bleu(corpus) - _bleu_brute_force(corpus)))
    ok = pareto_ok and rouge_worst <= 1e-9 and bleu_worst <= 1e-9
    criterion("6 oracle equivalences (pareto, rouge, self-BLEU)", ok,
              f"pareto={pareto_ok}, rouge worst {rouge_worst:.1e}, "
              f"bleu worst {bleu_worst:.1e}")


def test_criterion_7_flops_accounting():
    # hand count at V=4, two cached rows of each kind, d_h=0:
    #   softmax 4*4=16, output dots 2*4*2=16, repulsion gradient of the
    #   most similar row 3*4=12, local normalization 5*4=20, hidden dots
    #   2*0*2=0, global normalization 5*4=20
    hand = 16 + 16 + 12 + 20 + 0 + 20
    est_ok = flops_estimate(4, 0, 2) == hand
    model = ToyArModel(16, 8, seed=77)
    cfg = GenerationConfig(schedule=default_schedule(12), max_steps=12, branches=3,
                           seed=4, uag_enabled=False)
    branches = multi_branch(model, [[1]], [cfg])[0]
    model_only = 12 * model.step_flops()
    off_ok = all(b.total_flops == model_only for b in branches)
    penalty_zero = all(r.flops == 0 for b in branches for r in b.trace)
    criterion("7 flops accounting", est_ok and off_ok and penalty_zero,
              f"hand count {hand} matched={est_ok}, "
              f"uag-off equals model-only count={off_ok}")


def test_criterion_8_reproducibility(tmp_path):
    config = {
        "model": {"kind": "toy_ar", "vocab_size": 16, "hidden_size": 8,
                  "seed": 3},
        "max_steps": 8,
        "branches": 3,
        "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("one prompt\nanother prompt\n", encoding="utf-8")
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({
        "sampling": "random", "budget": 3,
        "alpha": {"min": 0.1, "max": 3.0},
        "temperature": {"min": 0.05, "max": 0.3},
    }), encoding="utf-8")

    gen_bytes = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        assert main(["generate", "--config", str(cfg_path), "--prompts",
                     str(prompts), "--out", str(out), "--quiet"]) == 0
        gen_bytes.append({f: (out / f).read_bytes()
                          for f in ("branches.json", "trace.jsonl",
                                    "report.json")})
    sweep_bytes = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg_path), "--space",
                     str(space_path), "--prompts", str(prompts), "--out",
                     str(out), "--quiet"]) == 0
        sweep_bytes.append((out / "sweep.csv").read_bytes())
    ok = gen_bytes[0] == gen_bytes[1] and sweep_bytes[0] == sweep_bytes[1]
    criterion("8 reproducibility (generate + sweep, byte-identical)", ok)


def test_criterion_9_judge_round_trip(judge_server, monkeypatch):
    monkeypatch.setattr(judge_client, "BACKOFF_SECONDS", 0.0)
    cfg = JudgeConfig(base_url=judge_server.base_url, model_name="judge")
    judge_server.set_script(
        [(200, '{"diversity_score": 0.8, "justification": "varied"}')])
    div = judge_corpus(cfg, "diversity", [f"s{i}" for i in range(15)])
    sent_system = judge_server.requests[0]["body"]["messages"][0]["content"]
    diversity_ok = (div == 0.8
                    and "You are a text diversity evaluator." in sent_system)
    judge_server.set_script([(200, '{"score": 0.2, "reason": "clean"}')])
    deg = judge_corpus(cfg, "degeneration", ["a", "b"])
    degen_ok = (deg == 0.2 and "Return pure JSON"
                in judge_server.requests[0]["body"]["messages"][0]["content"])
    judge_server.set_script([(500, "x"), (500, "x"),
                             (200, '{"score": 0.4, "reason": "r"}')])
    retried = judge_corpus(cfg, "degeneration", ["t"])
    retry_ok = retried == 0.4 and len(judge_server.requests) == 3
    judge_server.set_script([(200, "no json verdict at all")])
    try:
        judge_corpus(cfg, "degeneration", ["t"])
        malformed_ok = False
    except JudgeError as exc:
        malformed_ok = "no JSON object" in str(exc)
    ok = diversity_ok and degen_ok and retry_ok and malformed_ok
    criterion("9 judge client mock round trip", ok,
              f"diversity={diversity_ok}, degeneration={degen_ok}, "
              f"retry={retry_ok}, malformed={malformed_ok}")
