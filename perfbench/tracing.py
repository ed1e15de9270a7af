"""Span tracing of uag's layers, installed from outside the package.

Tracer.install() replaces each public function at the place where the
program looks it up (the module global or class attribute a caller
reads), so calls made through imported names are traced too, and
uninstall() puts the originals back.  Each span records its id, parent
id, op number, part name, start and end; spans stay in memory until
dump().  Self time is a span's duration minus that of its child spans,
so per op the self times of all spans, including the op's root span,
add up to the op's wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (part, owner, attribute): owner is a module, or "module:Class" for a
# method.  Several sites may feed one part.
SITES = (
    ("cli.main", "uag.cli", "main"),
    ("cli.build_run", "uag.cli", "build_run"),
    ("cli.command", "uag.cli", "cmd_generate"),
    ("cli.command", "uag.cli", "cmd_sweep"),
    ("cli.command", "uag.cli", "cmd_eval"),
    ("process.loop", "uag.cli", "multi_branch"),
    ("process.loop", "uag.sweep", "multi_branch"),
    ("process.loop", "uag.process", "generate_branch"),
    ("process.model_step", "uag.process:ToyArModel", "step"),
    ("process.model_step", "uag.process:ToyDiffusion", "predict_noise"),
    ("process.ddim_step", "uag.process", "ddim_step"),
    ("process.sample_token", "uag.process", "sample_token"),
    ("process.bank_commit", "uag.process:ReferenceBankSet", "commit"),
    ("penalty.local_grad", "uag.process", "repulsion_gradient"),
    ("penalty.local_grad", "uag.process", "latent_cosine_gradient"),
    ("penalty.global_grad", "uag.process", "hidden_gradient_projected"),
    ("penalty.global_grad", "uag.process", "embedding_penalty_gradient"),
    ("penalty.normalize", "uag.process", "normalize_gradient"),
    ("penalty.apply", "uag.process", "apply_uag"),
    ("penalty.trace_loss", "uag.process", "uag_loss_value"),
    ("penalty.trace_loss", "uag.process", "latent_cosine_loss"),
    ("penalty.trace_loss", "uag.process", "embedding_cosine_loss"),
    ("schedule.weights", "uag.process", "schedule_weights"),
    ("metrics.diversity_report", "uag.cli", "diversity_report"),
    ("metrics.mean_pairwise_cosine", "uag.cli", "mean_pairwise_cosine"),
    ("metrics.self_bleu", "uag.metrics", "self_bleu"),
    ("metrics.self_bleu", "uag.sweep", "self_bleu"),
    ("metrics.rouge_l", "uag.metrics", "rouge_l"),
    ("metrics.meteor_simple", "uag.metrics", "meteor_simple"),
    ("metrics.distinct_n", "uag.metrics", "distinct_n"),
    ("metrics.pairwise_cosine_bow", "uag.metrics", "pairwise_cosine_bow"),
    ("metrics.corpus_degeneration", "uag.metrics", "corpus_degeneration"),
    ("metrics.corpus_degeneration", "uag.sweep", "corpus_degeneration"),
    ("sweep.run_sweep", "uag.cli", "run_sweep"),
    ("sweep.evaluate_objectives", "uag.sweep", "evaluate_objectives"),
    ("sweep.pareto_front", "uag.cli", "pareto_front"),
    ("judge_client.judge_corpus", "uag.cli", "judge_corpus"),
)

PARTS = tuple(dict.fromkeys(part for part, _, _ in SITES))
MODULES = tuple(dict.fromkeys(part.split(".")[0] for part in PARTS))
# Parts whose work flops_estimate and diffusion_flops_estimate count.
FLOP_PARTS = ("penalty.local_grad", "penalty.global_grad", "penalty.normalize")
# Position of the reference bank among each gradient's arguments.
BANK_ARG = {"repulsion_gradient": 1, "latent_cosine_gradient": 1,
            "hidden_gradient_projected": 1, "embedding_penalty_gradient": 2}

OP_SPAN = "op"          # one root span per op; its self time is harness time
PROBE_SPAN = "trace.probe"  # the flip counterfactual, kept out of every layer


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.missing: list[str] = []
        self.op_counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._pending: tuple[object, object] | None = None
        self._probe_rng = np.random.default_rng(0)  # state copied per draw
        self._counts: dict[str, float] = {}

    # -- recording ---------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, start, end))

    @contextmanager
    def op(self):
        """Root span of one op; counters reset per op."""
        self._op += 1
        self._counts = defaultdict(float)
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, None, self._op, OP_SPAN, start, end))
            self.op_counts.append(dict(self._counts))

    def _wrap(self, part: str, attr: str, fn):
        tracer = self
        bank_arg = BANK_ARG.get(attr)

        def traced(*args, **kwargs):
            counts = tracer._counts
            if bank_arg is not None:
                counts["grad_calls"] += 1
                counts["refs"] += len(args[bank_arg])
            unpenalized = (tracer._unpenalized_token(fn, args)
                           if attr == "sample_token" else None)
            result = tracer._span(part, fn, args, kwargs)
            if unpenalized is not None:
                counts["penalized_steps"] += 1
                counts["flips"] += result != unpenalized
            elif attr == "apply_uag":
                tracer._pending = (result, args[0])
            elif attr == "generate_branch":
                counts["est_flops"] += sum(r.flops for r in result.trace)
            return result

        return traced

    def _unpenalized_token(self, sample_token, args):
        """The token this step would have drawn without the penalty.

        Redraws with the unpenalized logits from a copy of the generator,
        so the program's own random stream is not advanced.  None when
        the penalty did not run at this step.
        """
        pending, self._pending = self._pending, None
        if pending is None or pending[0] is not args[0]:
            return None
        return self._span(PROBE_SPAN, self._redraw, (sample_token, pending[1], *args[1:]), {})

    def _redraw(self, sample_token, logits, temperature, rng):
        self._probe_rng.bit_generator.state = rng.bit_generator.state
        return sample_token(logits, temperature, self._probe_rng)

    # -- install -----------------------------------------------------

    def install(self) -> None:
        for part, owner_path, attr in SITES:
            owner = _owner(owner_path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(part, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------

    def self_times(self) -> list[dict[str, tuple[int, float]]]:
        """Per op: part -> (calls, self seconds), including OP_SPAN and PROBE_SPAN."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_op: list[dict] = [defaultdict(lambda: [0, 0.0])
                              for _ in range(self._op + 1)]
        for sid, _, op, name, start, end in self.spans:
            entry = per_op[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child[sid]
        return [{k: (v[0], v[1]) for k, v in d.items()} for d in per_op]

    def op_walls(self) -> list[float]:
        return [end - start for _, _, _, name, start, end in self.spans
                if name == OP_SPAN]

    def dump(self, path: Path) -> None:
        """One JSON array per span: [id, parent, op, name, start, end]."""
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
