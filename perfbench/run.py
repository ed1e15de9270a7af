"""Benchmark of the uag CLI: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload ar_toy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25          # every workload in turn

One client drives `generate`, `sweep` and `eval` in-process through
uag.cli.main and waits for each op, because a CLI user waits for each
command.  Every op's outputs go through the correctness oracle.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports per-layer metrics from spans wrapped around uag's public
functions (see tracing.py), after an untraced pass over the same ops that
gives the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Without
--workload, each workload runs in a fresh process and its report is
relayed.

End-to-end metrics, bounded in BENCHMARK.json:
  setup_s      median of 5 set-ups spread over the run, each an import of
               uag.cli in a fresh interpreter, input generation and one
               warm-up op
  op_p50_s     median wall time of the run's ops
  steps_per_s  branch decode steps (prompts x branches x steps, over every
               generate call and sweep point) per second of op wall time
  peak_rss_mb  peak resident memory of the run's process
Printed but not bounded: op_tail_s (the highest percentile with ten ops
beyond it), op_fail_ratio (failed / attempted in the result line), and
the outputs' self_bleu and degeneration (token workloads) or latent_cos
(diffusion).
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
if __name__ == "__main__":
    # BLAS threads are pinned before numpy loads, so op times do not depend
    # on how a BLAS thread pool is scheduled against other work on the host.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)
    # The mock judge is on loopback; no proxy may be asked to reach it.
    os.environ["NO_PROXY"] = "127.0.0.1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import SEED_REASON, WORKLOADS, make_ops  # noqa: E402
from mockjudge import MockJudge  # noqa: E402
from oracle import OpFailure, check_op  # noqa: E402
from tracing import FLOP_PARTS, MODULES, OP_SPAN, PARTS, PROBE_SPAN, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
WORK = ROOT / ".perfbench_work"   # inputs and op outputs; removed after a run
OUT = ROOT / ".perfbench_out"     # each workload's latest span dump
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import uag.cli; "
                 "print(time.perf_counter() - t)")


@dataclass
class OpResult:
    key: int
    wall: float
    steps: int
    ok: bool
    quality: dict = field(default_factory=dict)
    digest: str = ""
    bytes_written: int = 0
    judge_attempts: int = 0
    judge_failed: int = 0


class Runner:
    """Runs ops against uag.cli.main and checks each one."""

    def __init__(self, out_dir: Path, judge=None):
        import uag.cli  # here, so main() can first report a missing src/
        self.cli = uag.cli
        self.out_dir = out_dir
        self.judge = judge
        self.digests: dict[int, str] = {}
        self.reproducible = True
        self.failures = 0  # every op run, warm-ups included

    def run(self, op, tracer=None) -> OpResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        before = self.judge.counts() if self.judge else (0, 0)
        codes = []
        start = time.perf_counter()
        with tracer.op() if tracer else nullcontext():
            for argv in op.argvs:
                codes.append(self._main(list(argv)))
        wall = time.perf_counter() - start
        after = self.judge.counts() if self.judge else (0, 0)
        result = OpResult(op.key, wall, op.expect.decode_steps, ok=False,
                          judge_attempts=after[0] - before[0],
                          judge_failed=after[1] - before[1])
        try:
            result.quality, result.digest = check_op(self.out_dir, op.expect, codes)
        except OpFailure as exc:
            print(f"op {op.key} failed: {exc}", file=sys.stderr)
            self.failures += 1
            return result
        result.ok = True
        result.bytes_written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        first = self.digests.setdefault(op.key, result.digest)
        if first != result.digest:
            print(f"op {op.key} did not reproduce its outputs", file=sys.stderr)
            self.reproducible = False
        return result

    def _main(self, argv: list[str]) -> int:
        try:
            return self.cli.main(argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def loop(self, ops, seconds: float, min_ops: int, tracer=None,
             first: int = 0) -> list[OpResult]:
        """Closed loop over the op list from ops[first] on, for `seconds`
        and at least min_ops ops."""
        results = []
        deadline = time.perf_counter() + seconds
        while len(results) < min_ops or time.perf_counter() < deadline:
            results.append(self.run(ops[(first + len(results)) % len(ops)], tracer))
        return results


def import_seconds() -> float:
    """Time to import uag.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def tail(walls: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten ops beyond it.

    Falls back to the maximum (percentile 100) below 11 ops.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_build, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def steps_per_s(results: list[OpResult]) -> float:
    """Branch decode steps per second of op wall time, over the good ops."""
    done = [r for r in results if r.ok] or results
    return sum(r.steps for r in done) / sum(r.wall for r in done)


def end_to_end(results: list[OpResult], setup: list[float]) -> tuple[dict, list[str]]:
    walls = [r.wall for r in results]
    pct, tail_s = tail(walls)
    quality: dict[int, dict] = {}
    for r in results:
        if r.ok:
            quality.setdefault(r.key, r.quality)
    per_key = list(quality.values())
    figures = {name: statistics.fmean(q[name] for q in per_key)
               for name in per_key[0]} if per_key else {}
    failed = sum(not r.ok for r in results)
    n = len(results)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_p50_s": metric(statistics.median(walls), "s"),
        "steps_per_s": metric(steps_per_s(results), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"  setup_s        {metrics['setup_s']['value']:.4f} s  (median of "
        f"{len(setup)} set-ups: fresh-interpreter import, inputs, warm-up op)",
        f"  op_p50_s       {metrics['op_p50_s']['value']:.4f} s  (median of {n} ops)",
        f"  steps_per_s    {metrics['steps_per_s']['value']:.1f} 1/s  (branch steps "
        f"over the wall time of {n} ops)",
        f"  peak_rss_mb    {metrics['peak_rss_mb']['value']:.1f} MB  (whole process)",
        "  printed only, not bounded in BENCHMARK.json:",
        f"  op_tail_s      {tail_s:.4f} s  (p{pct:.1f} of {n} ops, "
        f"{10 if n > 10 else 0} beyond)",
        f"  op_fail_ratio  {failed / n:.4f}  ({failed} of {n} ops)",
    ]
    # Each quality figure applies to some workloads only, and ar_large's
    # are near zero, so none can carry a relative bound.
    for name, value in figures.items():
        lines.append(f"  {name:<14} {value:.6f}  (mean over {len(per_key)} "
                     "distinct ops; lower is better)")
    return metrics, lines


def per_layer(tracer, traced: list[OpResult], untraced: list[OpResult]) -> tuple[dict, list[str]]:
    n = len(traced)
    calls = dict.fromkeys((*PARTS, OP_SPAN, PROBE_SPAN), 0)
    self_s = dict.fromkeys((*PARTS, OP_SPAN, PROBE_SPAN), 0.0)
    for op in tracer.self_times():
        for name, (c, s) in op.items():
            calls[name] += c
            self_s[name] += s
    counts: dict[str, float] = {}
    for op in tracer.op_counts:
        for name, value in op.items():
            counts[name] = counts.get(name, 0.0) + value
    wall = sum(tracer.op_walls())
    m = {}
    for part in PARTS:
        m[f"{part}.calls"] = metric(calls[part] / n, "count")
        m[f"{part}.self_ms"] = metric(self_s[part] * 1e3 / n, "ms")
        m[f"{part}.us_per_call"] = metric(
            self_s[part] * 1e6 / calls[part] if calls[part] else 0.0, "us")
    for module in MODULES:
        share = sum(self_s[p] for p in PARTS if p.startswith(module + "."))
        m[f"{module}.share"] = metric(share / wall, "ratio")
    flops = counts.get("est_flops", 0.0)
    grad_calls = counts.get("grad_calls", 0.0)
    penalized = counts.get("penalized_steps", 0.0)
    m["penalty.est_flops"] = metric(flops / n, "count")
    m["penalty.ns_per_est_flop"] = metric(
        sum(self_s[p] for p in FLOP_PARTS) * 1e9 / flops if flops else 0.0, "ns")
    m["penalty.refs_per_call"] = metric(
        counts.get("refs", 0.0) / grad_calls if grad_calls else 0.0, "count")
    m["penalty.flip_ratio"] = metric(
        counts.get("flips", 0.0) / penalized if penalized else 0.0, "ratio")
    m["cli.bytes_written"] = metric(
        statistics.fmean(r.bytes_written for r in traced), "B")
    m["judge_client.attempts"] = metric(
        sum(r.judge_attempts for r in traced) / n, "count")
    m["judge_client.failed"] = metric(sum(r.judge_failed for r in traced) / n, "count")
    untraced_sps = steps_per_s(untraced)
    traced_sps = steps_per_s(traced)
    m["trace.overhead"] = metric(untraced_sps / traced_sps, "ratio")
    m["trace.unattributed_share"] = metric(self_s[OP_SPAN] / wall, "ratio")
    m["trace.probe_share"] = metric(self_s[PROBE_SPAN] / wall, "ratio")
    covered = sum(self_s[p] for p in PARTS) / wall
    lines = [f"  traced ops {n}, untraced ops {len(untraced)}; "
             f"trace.overhead {untraced_sps / traced_sps:.3f}x",
             f"  layer self times cover {covered:.4f} of traced op wall time; "
             f"harness {self_s[OP_SPAN] / wall:.4f}, flip probe {self_s[PROBE_SPAN] / wall:.4f}"]
    for module in MODULES:
        lines.append(f"  {module}.share {m[f'{module}.share']['value']:.4f}")
    for part in PARTS:
        if calls[part]:
            lines.append(f"  {part:<30} {calls[part] / n:10.1f} calls/op "
                         f"{self_s[part] * 1e3 / n:9.3f} ms/op "
                         f"{self_s[part] * 1e6 / calls[part]:9.2f} us/call")
    for name in ("penalty.est_flops", "penalty.ns_per_est_flop",
                 "penalty.refs_per_call", "penalty.flip_ratio",
                 "cli.bytes_written", "judge_client.attempts",
                 "judge_client.failed"):
        lines.append(f"  {name} {m[name]['value']:.4f} {m[name]['unit']}")
    if tracer.missing:
        lines.append(f"  trace sites not found: {', '.join(tracer.missing)}")
    return m, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    work = WORK / f"{workload}-{os.getpid()}"
    in_dir, out_dir = work / "inputs", work / "out"
    lines = [f"{workload}: seed {seed} (default {WORKLOADS[workload]}: {SEED_REASON}); "
             f"closed loop, 1 client, {'traced' if trace else 'untraced'}",
             "  environment " + json.dumps(environment(), sort_keys=True)]
    try:
        with MockJudge() if workload == "ar_toy" else nullcontext() as judge:
            url = judge.base_url if judge else ""
            runner = Runner(out_dir, judge)

            def set_up() -> tuple[float, list]:
                imported = import_seconds()
                start = time.perf_counter()
                shutil.rmtree(in_dir, ignore_errors=True)
                ops = make_ops(workload, seed, in_dir, out_dir, url)
                runner.run(ops[0])  # warm-up; a repeat of the run's first op
                return imported + time.perf_counter() - start, ops

            if trace:
                _, ops = set_up()
                untraced = runner.loop(ops, seconds / 2, 1)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = runner.loop(ops, seconds / 2, 1, tracer)
                finally:
                    tracer.uninstall()
                OUT.mkdir(exist_ok=True)
                tracer.dump(OUT / f"spans-{workload}.jsonl")
                results = traced
                metrics, more = per_layer(tracer, traced, untraced)
            else:
                # The set-ups are spread over the run, between ops, so that
                # their median, like the ops, covers the whole run.
                setup, results = [], []
                for i in range(SETUP_REPEATS):
                    elapsed, ops = set_up()
                    setup.append(elapsed)
                    last = i == SETUP_REPEATS - 1
                    results += runner.loop(
                        ops, seconds / SETUP_REPEATS,
                        len(ops) - len(results) if last else 0, first=len(results))
                metrics, more = end_to_end(results, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    failed = sum(not r.ok for r in results)
    lines.append(f"  ops {len(results)} over {len(ops)} distinct, failed {failed}, "
                 f"reproducible {runner.reproducible}")
    lines += more
    result = {"correct": runner.failures == 0 and runner.reproducible,
              "attempted": len(results), "failed": failed, "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    status = 0
    for name, default_seed in WORKLOADS.items():
        seed = default_seed if args.seed is None else args.seed
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})")
            status = 1
            continue
        if done.returncode != 0 or not result["correct"]:
            status = 1
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, each in its own process, "
                             "when omitted")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uag" / "cli.py").is_file():
        print(f"error: no uag sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    result, lines = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
