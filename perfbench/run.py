"""Run the tinytraj benchmark.

    python3 perfbench/run.py                       # all three workloads, report only
    python3 perfbench/run.py --workload train --seed 3 --trace 0
    python3 perfbench/run.py --workload eval --trace 1   # per-layer numbers
    python3 perfbench/run.py --record-goldens      # re-record default-seed digests

The library is imported from ``src/`` of the checkout this file sits in.
``--seconds`` defaults to ``RUN_SECONDS``, the ``run_seconds`` of
``BENCHMARK.json``; a run repeats whole rounds of fixed work until the next
one would end after it, and always runs at least one (at least two traced),
so ``train``, whose 100-step round takes about 47 s, runs longer.
With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer metrics
and the tracing overhead. Every run checks its outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans and the full result are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
DEFAULT_SEED = 0
RUN_SECONDS = 20  # BENCHMARK.json's run_seconds
WORKLOAD_NAMES = ("train", "eval", "ingest")

# name, unit, better; every workload reports all of them with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("traj_per_s", "traj/s", "higher"),
)

perf_counter = time.perf_counter


def host_facts() -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    # the SIMD kernels numpy dispatches to decide the last bits of exp, erf, ...
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": simd,
    }


def _fingerprint(facts: dict) -> dict:
    return {k: facts[k] for k in ("python", "numpy", "machine", "simd")}


def import_seconds(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing tinytraj, ``repeats`` times."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import tinytraj"
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return times


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def _golden_reference(name: str, seed: int, facts: dict, full_size: bool):
    """(digests to match or None, one line saying why)."""
    if seed != DEFAULT_SEED or not full_size:
        return None, f"not checked (goldens exist for seed {DEFAULT_SEED} at full size)"
    try:
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None, "not checked (no goldens.json)"
    if goldens.get("host") != _fingerprint(facts):
        return None, f"not checked (recorded on another host: {goldens.get('host')})"
    if name not in goldens.get("digests", {}):
        return None, f"not checked (no goldens for {name})"
    return goldens["digests"][name], "checked against goldens.json"


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None,
                 record: bool = False) -> dict:
    """Set up, run timed rounds for about ``seconds``, check, and summarize."""
    from perfbench import layers, workloads
    from perfbench.tracer import SpanTotals, Tracer

    sizes = sizes or workloads.FULL
    wl = workloads.WORKLOADS[name]
    facts = host_facts()
    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        imports = import_seconds(sizes.setups)
        # the wrappers are in place only while tracing, so untraced rounds pay
        # nothing for them
        if trace:
            tracer.install()
            tracer.active = True
        tracer.phase = "setup"
        setups, state = [], None
        for _ in range(sizes.setups):
            state = None  # drop the previous set-up before building the next
            t0 = perf_counter()
            state = wl.setup(sizes, seed, work)
            setups.append(perf_counter() - t0)
        tracer.active = False
        tracer.uninstall()

        rounds, traced = [], []
        min_rounds = 2 if trace else 1
        t_start = perf_counter()
        while True:
            if trace and len(rounds) % 2 == 1:
                tracer.install()
                tracer.active = True
            try:
                rnd = wl.round(state, tracer)
            except Exception as exc:  # a failed round is reported, not fatal
                traceback.print_exc()
                rnd = workloads.Round(attempted=wl.ops(state), problems=[repr(exc)])
            finally:
                traced.append(tracer.active)
                tracer.active = False
                tracer.uninstall()
            rounds.append(rnd)
            elapsed = perf_counter() - t_start
            if rnd.problems and rnd.wall == 0.0:
                break  # the round raised: further rounds would too
            if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
                break  # the next round would most likely end after the deadline
    finally:
        tracer.active = False
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    golden, golden_note = (None, "not checked (recording)") if record else _golden_reference(
        name, seed, facts, sizes == workloads.FULL
    )
    reference = golden if golden is not None else rounds[0].digests
    problems, failed = [], 0
    for i, rnd in enumerate(rounds):
        issues = list(rnd.problems)
        if rnd.digests != reference and not rnd.problems:
            diff = sorted(k for k in set(rnd.digests) | set(reference)
                          if rnd.digests.get(k) != reference.get(k))
            what = "goldens.json" if golden is not None else "round 1"
            issues.append(f"digests differ from {what}: {', '.join(diff)}")
        if issues:
            failed += rnd.attempted
            problems += [f"round {i + 1}{' (traced)' if traced[i] else ''}: {p}" for p in issues]
    attempted = sum(r.attempted for r in rounds)

    plain = [r for r, t in zip(rounds, traced) if not t and r.walls]
    with_trace = [r for r, t in zip(rounds, traced) if t and r.walls]
    if not plain or (trace and not with_trace):
        raise RuntimeError(f"{name}: no round completed: {'; '.join(problems)}")
    report = []  # (name, value, unit, samples, note)
    metrics = {}
    if not trace:
        ops = [g for r in plain for g in r.op_ms]
        windows = [w for r in plain for w in r.windows]
        values = {
            "setup_s": (statistics.median(imports) + statistics.median(setups), len(setups)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "op_ms_p50": (statistics.median(ops), len(ops)),
            "op_ms_p90": (_p90(ops), len(ops)),
            "traj_per_s": (statistics.median(n / t for n, t in windows), len(windows)),
        }
        for metric, unit, _ in END_TO_END:
            value, n = values[metric]
            metrics[metric] = {"value": value, "unit": unit}
            report.append((metric, value, unit, n, f"per {wl.op}" if metric.startswith("op_") else ""))
        report += _named_metrics(name, plain, ops, sizes)
        report.append(("failed_frac", failed / attempted, "ratio", attempted, "failed ops / attempted ops"))
    else:
        computed = layers.compute(SpanTotals(tracer))
        for metric, unit, _, moves, _ in layers.PER_LAYER:
            value, n = computed[metric]
            metrics[metric] = {"value": value, "unit": unit}
            report.append((metric, value, unit, n, f"moves {moves}"))
        metric, unit, _, moves = layers.OVERHEAD
        overhead, lo, hi = _overhead(plain, with_trace)
        resolved = "unresolved" if lo <= overhead <= hi else "resolved"
        metrics[metric] = {"value": overhead, "unit": unit}
        report.append((metric, overhead, unit, sum(len(r.op_ms) for r in with_trace),
                       f"{resolved}: untraced spread {lo:+.3f} to {hi:+.3f}; {moves}"))
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": wl.why, "host": facts,
        "rounds": len(rounds), "traced_rounds": sum(traced),
        "golden": golden_note, "digests": rounds[0].digests, "problems": problems,
        "not_traced": tracer.missing,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "report": report,
    }


def _overhead(plain, with_trace) -> tuple[float, float, float]:
    """Traced over untraced median op time, minus 1, and the untraced spread.

    The spread is the range of the untraced rounds' own median op times (of
    the two halves of the only one, if there is one) on the same scale; an
    overhead inside it is not told apart from noise. Medians keep the warm-up
    of the first round out.
    """
    base = statistics.median(g for r in plain for g in r.op_ms)
    overhead = statistics.median(g for r in with_trace for g in r.op_ms) / base - 1.0
    if len(plain) > 1:
        parts = [r.op_ms for r in plain]
    else:
        ops = plain[0].op_ms
        parts = [ops[: len(ops) // 2], ops[len(ops) // 2:]]
    band = [statistics.median(p) / base - 1.0 for p in parts if p]
    return overhead, min(band), max(band)


def _named_metrics(name: str, rounds, ops: list[float], sizes) -> list[tuple]:
    """The workload's stage metrics under their descriptive names."""
    n_rounds = len(rounds)

    def per_s(stage):
        value = statistics.median(r.stage_trajs[stage] / r.walls[stage] for r in rounds)
        return value, "traj/s", sum(r.stage_trajs[stage] for r in rounds)

    if name == "train":
        return [
            ("train_step_ms_p50", statistics.median(ops), "ms", len(ops), "= op_ms_p50"),
            ("train_step_ms_p90", _p90(ops), "ms", len(ops), "= op_ms_p90"),
        ]
    if name == "eval":
        steps = [r.walls["rollout"] * 1e3 / (r.stage_trajs["rollout"] * sizes.horizon)
                 for r in rounds]
        n_steps = sum(r.stage_trajs["rollout"] for r in rounds) * sizes.horizon
        return [
            ("rollout_ms_per_traj_step", statistics.median(steps), "ms", n_steps,
             f"median of {n_rounds} rounds"),
            ("rollout_traj_ms_p50", statistics.median(ops), "ms", len(ops), "= op_ms_p50"),
            ("rollout_traj_ms_p90", _p90(ops), "ms", len(ops), "= op_ms_p90"),
            ("infill_traj_per_s", *per_s("infill"), f"median of {n_rounds} rounds"),
        ]
    return [
        (metric, *per_s(stage), f"median of {n_rounds} rounds")
        for metric, stage in (
            ("jsonl_write_traj_per_s", "write"),
            ("fit_norm_traj_per_s", "fit"),
            ("ingest_traj_per_s", "ingest"),
        )
    ]


def print_result(res: dict) -> None:
    h = res["host"]
    print(f"perfbench {res['workload']}: seed={res['seed']} seconds={res['seconds']} "
          f"trace={res['trace']} rounds={res['rounds']}")
    print(f"workload: {res['why']}")
    print(f"host: nproc={h['nproc']} python={h['python']} numpy={h['numpy']} "
          f"simd={','.join(h['simd']) or 'baseline'}")
    print(f"goldens: {res['golden']}")
    if res["not_traced"]:
        print(f"not traced (attribute missing): {', '.join(res['not_traced'])}")
    print(f"  {'metric':44s} {'value':>14s} {'unit':8s} {'samples':>8s}  note")
    for metric, value, unit, n, note in res["report"]:
        print(f"  {metric:44s} {value:14.6g} {unit:8s} {n:8d}  {note}")
    for p in res["problems"]:
        print(f"FAILED {p}")


def _record_goldens(res: dict) -> None:
    try:
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        goldens = {}
    if goldens.get("host") != _fingerprint(res["host"]):
        goldens = {"host": _fingerprint(res["host"]), "seed": DEFAULT_SEED, "digests": {}}
    goldens["digests"][res["workload"]] = res["digests"]
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--record-goldens"] if args.record_goldens else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("\n".join(lines))
            print(f"perfbench {name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help=f"write the seed-{DEFAULT_SEED} digests to goldens.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.record_goldens:
        args.seed, args.trace, args.seconds = DEFAULT_SEED, 0, 1

    if not (SRC / "tinytraj" / "__init__.py").is_file():
        print(f"perfbench: no tinytraj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import tinytraj

    if Path(tinytraj.__file__).resolve().parent != SRC / "tinytraj":
        print(f"perfbench: imported tinytraj from {tinytraj.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return _run_all(args)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           record=args.record_goldens)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_result(res)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=2) + "\n", encoding="utf-8"
    )
    if args.record_goldens:
        if not res["correct"]:
            print("perfbench: not recording goldens from a failing run", file=sys.stderr)
            return 1
        _record_goldens(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
