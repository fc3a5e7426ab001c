"""The benchmark's three workloads: inputs, set-up, one timed round, checks.

Each workload is a closed loop with one caller (one process, one Python
thread, ``prefetch`` off). Its inputs come only from the workload seed. A
round is a fixed amount of work whose outputs are digested, so every round of
a run (traced or not) must reproduce the first round's digests bit for bit.
The library is driven only through its public module attributes, looked up
at call time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tinytraj import cli, geo
from tinytraj import data as dt
from tinytraj import evaluation as ev
from tinytraj import model as tm
from tinytraj import training as tr

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures, ``TINY`` its smoke test."""

    # train: the acceptance-test-06 configuration, 25 epochs of 4 batches
    train_traj: int = 100
    train_points: int = 32
    d_model: int = 32
    n_heads: int = 4
    n_blocks: int = 2
    max_seq: int = 32
    batch_size: int = 25
    epochs: int = 25
    # eval: ragged lengths, one cycle of the pattern per 20 trajectories:
    # 20% of 8 points, 45% of 20, 35% of 32, so the median per-trajectory
    # time falls inside the 20-point cluster and the p90 inside the 32-point
    # one, not between clusters where it would jump with the slightest noise
    eval_traj: int = 100
    eval_lengths: tuple[int, ...] = (8,) * 4 + (20,) * 9 + (32,) * 7
    horizon: int = 5
    # ingest: every length from 4 to 64 equally often, ~1% malformed lines
    ingest_traj: int = 1952
    ingest_lengths: tuple[int, ...] = tuple(range(4, 65))
    ingest_batch: int = 32
    s_max: int = 32
    malformed_frac: float = 0.01
    # independent set-ups per run, for the median set-up time
    setups: int = 3


FULL = Sizes()
TINY = Sizes(
    train_traj=8, train_points=8, d_model=8, n_heads=2, n_blocks=1, max_seq=8,
    batch_size=4, epochs=2, eval_traj=6, eval_lengths=(6, 7, 8), horizon=2,
    ingest_traj=40, ingest_lengths=tuple(range(4, 13)), ingest_batch=8, s_max=8, setups=1,
)


@dataclass
class Round:
    """What one round did: op count, timed stages, per-op gaps, digests."""

    attempted: int
    walls: dict[str, float] = field(default_factory=dict)  # stage -> seconds
    op_ms: list[float] = field(default_factory=list)
    # (trajectories, seconds) per throughput window: an epoch of training,
    # else the whole round
    windows: list[tuple[int, float]] = field(default_factory=list)
    stage_trajs: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Stamped:
    """Benchmark-owned re-iterable that stamps every item request.

    The gap between two successive requests is the consumer's cost for the
    item just handed over plus the source's cost for producing the next one
    (for training: data wait, forward, backward, clipping and Adam of one
    step). Each request also advances the tracer's run id, so the spans of
    one op share an id.
    """

    def __init__(self, source, tracer):
        self.source = source
        self.tracer = tracer
        self.passes: list[list[float]] = []  # gaps in ms, one list per pass

    @property
    def gaps_ms(self) -> list[float]:
        return [g for gaps in self.passes for g in gaps]

    def __iter__(self):
        it = iter(self.source)
        gaps: list[float] = []
        self.passes.append(gaps)
        last = None
        while True:
            now = perf_counter()
            if last is not None:
                gaps.append((now - last) * 1e3)
            last = now
            self.tracer.run_id += 1
            try:
                item = next(it)
            except StopIteration:
                return
            yield item


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_config(sz: Sizes) -> tm.ModelConfig:
    return tm.ModelConfig(
        d_model=sz.d_model, n_heads=sz.n_heads, n_blocks=sz.n_blocks, max_seq=sz.max_seq
    )


def ragged_corpus(seed: int, n: int, lengths: tuple[int, ...], tag: str) -> list[geo.Trajectory]:
    """``n`` synthetic trajectories whose lengths cycle through ``lengths``.

    The multiset of lengths is the same for every seed (so per-trajectory cost
    percentiles do not move with the seed); their order and every coordinate
    and timestamp come from the seed.
    """
    sizes = np.resize(np.array(lengths), n)[np.random.default_rng([seed, 7]).permutation(n)]
    out = []
    for i, length in enumerate(sizes):
        cfg = dt.SyntheticConfig(
            n_traj=1, points_per_traj=int(length), noise_sigma=1e-5, seed=seed * 1_000_003 + i
        )
        (traj,) = dt.generate_synthetic(cfg)
        out.append(geo.Trajectory(id=f"{tag}-{seed}-{i:05d}", points=traj.points))
    return out


def _checkpoint_problems(path: Path, scratch: Path) -> list[str]:
    """save -> load -> save must be byte-identical and every array finite."""
    loaded = tr.load_checkpoint(path)
    tr.save_checkpoint(loaded, scratch)
    problems = []
    if scratch.read_bytes() != path.read_bytes():
        problems.append(f"{path.name}: save -> load -> save changed the bytes")
    arrays = list(loaded.arrays.values())
    if loaded.adam is not None:
        arrays += list(loaded.adam.m.values()) + list(loaded.adam.v.values())
    if not all(np.isfinite(a).all() for a in arrays):
        problems.append(f"{path.name}: non-finite array")
    return problems


# ---------------------------------------------------------------------------
# train: next-step training on 100 straight lines x 32 points
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    sz: Sizes
    corpus: Path
    ckpt: Path
    norm: geo.NormalizationParams
    model_cfg: tm.ModelConfig
    train_cfg: tr.TrainConfig


def train_setup(sz: Sizes, seed: int, work: Path) -> TrainState:
    cfg = dt.SyntheticConfig(
        n_traj=sz.train_traj, points_per_traj=sz.train_points, n_waypoints=2,
        speed_min=1e-3, speed_max=3e-3, noise_sigma=0.0,
        bbox=(52.45, 13.25, 52.55, 13.35), seed=seed,
    )
    corpus = work / "train.jsonl"
    dt.write_jsonl(dt.generate_synthetic(cfg), corpus)
    # as `tinytraj train` does without --norm: fit to the training file
    norm = geo.compute_center(dt.stream_jsonl(corpus))
    train_cfg = tr.TrainConfig(
        lr=1e-2, epochs=sz.epochs, batch_size=sz.batch_size, objective="next_step", seed=seed
    )
    return TrainState(sz, corpus, work / "train.ckpt", norm, _model_config(sz), train_cfg)


def train_steps(st: TrainState) -> int:
    return st.sz.epochs * -(-st.sz.train_traj // st.sz.batch_size)


def train_round(st: TrainState, tracer) -> Round:
    rnd = Round(attempted=train_steps(st))
    tracer.phase = "train"
    params = tm.init_params(st.model_cfg, np.random.default_rng(st.train_cfg.seed))
    # s_max as `tinytraj train` sets it: max_seq * patch_len
    batches = dt.BatchLoader(
        dt.stream_jsonl(st.corpus), st.sz.batch_size, st.model_cfg.max_seq, st.norm
    )
    loader = Stamped(batches, tracer)
    t0 = perf_counter()
    result = tr.train(params, st.model_cfg, st.train_cfg, loader, norm_params=st.norm)
    tr.save_checkpoint(result.checkpoint, st.ckpt)
    rnd.walls["train"] = perf_counter() - t0
    tracer.count("steps", len(result.step_losses))

    rnd.op_ms = loader.gaps_ms
    rnd.windows = [(st.sz.train_traj, sum(gaps) / 1e3) for gaps in loader.passes]
    rnd.stage_trajs["train"] = st.sz.epochs * st.sz.train_traj
    with tracer.paused():
        losses = np.asarray(result.step_losses, dtype=np.float64)
        if len(losses) != rnd.attempted or len(rnd.op_ms) != rnd.attempted:
            rnd.problems.append(
                f"{len(losses)} losses and {len(rnd.op_ms)} step gaps for {rnd.attempted} steps"
            )
        if not np.isfinite(losses).all():
            rnd.problems.append("non-finite step loss")
        rnd.digests["losses_sha256"] = sha256(losses.tobytes())
        rnd.digests["ckpt_sha256"] = sha256(st.ckpt.read_bytes())
        rnd.problems += _checkpoint_problems(st.ckpt, st.ckpt.with_suffix(".resaved"))
    return rnd


# ---------------------------------------------------------------------------
# eval: rollout (horizon 5) then infill scoring of a ragged corpus
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    sz: Sizes
    seed: int
    trajs: list[geo.Trajectory]
    ckpt: Path
    params: tm.ModelParams
    model_cfg: tm.ModelConfig
    norm: geo.NormalizationParams


def eval_setup(sz: Sizes, seed: int, work: Path) -> EvalState:
    trajs = ragged_corpus(seed, sz.eval_traj, sz.eval_lengths, "eval")
    norm = geo.compute_center(trajs)
    model_cfg = _model_config(sz)
    params = tm.init_params(model_cfg, np.random.default_rng([seed, 1]))
    # init_params zeroes the head (the model would predict "stay put"); seed it
    head = np.random.default_rng([seed, 2])
    params.w_out.data[:] = head.normal(0.0, 0.05, params.w_out.shape)
    params.b_out.data[:] = head.normal(0.0, 0.05, params.b_out.shape)
    ckpt = work / "eval.ckpt"
    tr.save_checkpoint(tr.make_checkpoint(params, model_cfg, norm_params=norm), ckpt)
    loaded = tr.load_checkpoint(ckpt, expect_config=model_cfg)
    return EvalState(
        sz, seed, trajs, ckpt, tr.restore_params(loaded), model_cfg, loaded.norm_params
    )


def _report_bits(report: ev.MetricsReport) -> dict[str, str]:
    return {k: float(getattr(report, k)).hex() for k in ("ade_m", "fde_m", "time_mae_s")}


def eval_round(st: EvalState, tracer) -> Round:
    n, horizon = len(st.trajs), st.sz.horizon
    rnd = Round(attempted=2 * n)
    reports = {}
    for mode in ("rollout", "infill"):
        tracer.phase = mode
        items = Stamped(st.trajs, tracer)
        t0 = perf_counter()
        reports[mode] = ev.evaluate(
            st.params, st.model_cfg, items, st.norm, mode, horizon=horizon, seed=st.seed
        )
        rnd.walls[mode] = perf_counter() - t0
        rnd.stage_trajs[mode] = n
        tracer.count("trajs", n)
        if mode == "rollout":
            tracer.count("generated", n * horizon)
            rnd.op_ms = items.gaps_ms
    rnd.windows = [(n, rnd.wall)]

    with tracer.paused():
        for mode, report in reports.items():
            bits = _report_bits(report)
            rnd.digests.update({f"{mode}.{k}": v for k, v in bits.items()})
            if not all(math.isfinite(float.fromhex(v)) for v in bits.values()):
                rnd.problems.append(f"{mode}: non-finite metric")
            if report.n_traj != n:
                rnd.problems.append(f"{mode}: scored {report.n_traj} of {n} trajectories")
        if reports["rollout"].n_points != n * horizon:
            rnd.problems.append("rollout: wrong number of generated points")
        rnd.digests["ckpt_sha256"] = sha256(st.ckpt.read_bytes())
        rnd.problems += _checkpoint_problems(st.ckpt, st.ckpt.with_suffix(".resaved"))
    return rnd


# ---------------------------------------------------------------------------
# ingest: write JSONL, corrupt ~1% of lines, fit-norm via the CLI, batch it
# ---------------------------------------------------------------------------

# each breaks a different rule of the record schema
_MALFORMED = (
    '{"id": "cut", "points": [[52.5, 13.4',
    '{"id": "no-points"}',
    '{"id": "short-point", "points": [[52.5, 13.4], [52.6, 13.5]]}',
    '{"id": 7, "points": [[52.5, 13.4, 1], [52.6, 13.5, 2]]}',
)


@dataclass
class IngestState:
    sz: Sizes
    trajs: list[geo.Trajectory]
    bad_lines: np.ndarray  # 0-based line numbers replaced by malformed records
    corpus: Path
    norm_out: Path


def ingest_setup(sz: Sizes, seed: int, work: Path) -> IngestState:
    trajs = ragged_corpus(seed, sz.ingest_traj, sz.ingest_lengths, "ingest")
    n_bad = max(1, round(sz.malformed_frac * len(trajs)))
    bad = np.sort(np.random.default_rng([seed, 3]).choice(len(trajs), n_bad, replace=False))
    return IngestState(sz, trajs, bad, work / "ingest.jsonl", work / "norm.json")


def _corrupt(path: Path, bad_lines: np.ndarray) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for j, line_no in enumerate(bad_lines):
        lines[line_no] = _MALFORMED[j % len(_MALFORMED)] + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _batches_digest(batches) -> str:
    h = hashlib.sha256()
    for b in batches:
        for arr in (b.features, b.targets, b.pad_mask):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps([list(b.ids), list(b.lengths)]).encode())
    return h.hexdigest()


@contextlib.contextmanager
def _collect_malformed():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", dt.MalformedLineWarning)
        yield caught


def ingest_round(st: IngestState, tracer) -> Round:
    n, n_bad = len(st.trajs), len(st.bad_lines)
    rnd = Round(attempted=n)

    tracer.phase = "write"
    t0 = perf_counter()
    written = dt.write_jsonl(st.trajs, st.corpus)
    rnd.walls["write"] = perf_counter() - t0
    rnd.stage_trajs["write"] = n
    with tracer.paused():
        rnd.digests["jsonl_sha256"] = sha256(st.corpus.read_bytes())
        _corrupt(st.corpus, st.bad_lines)

    tracer.phase = "fit"
    with _collect_malformed() as caught, contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(["fit-norm", "--data", str(st.corpus), "--out", str(st.norm_out)])
        rnd.walls["fit"] = perf_counter() - t0
    rnd.stage_trajs["fit"] = n - n_bad
    fit_skipped = sum(issubclass(w.category, dt.MalformedLineWarning) for w in caught)
    norm_bytes = st.norm_out.read_bytes()
    norm = geo.NormalizationParams.from_dict(json.loads(norm_bytes))

    tracer.phase = "ingest"
    reader = dt.stream_jsonl(st.corpus)
    with _collect_malformed():
        t0 = perf_counter()
        items = Stamped(dt.batchify(reader, st.sz.ingest_batch, st.sz.s_max, norm), tracer)
        batches = list(items)
        rnd.walls["ingest"] = perf_counter() - t0
    rnd.stage_trajs["ingest"] = n - n_bad
    tracer.count("lines_skipped", reader.skipped)
    tracer.count("passes", 1)
    rnd.op_ms = items.gaps_ms
    rnd.windows = [(n, rnd.wall)]

    with tracer.paused():
        if written != n or code != 0:
            rnd.problems.append(f"write_jsonl wrote {written} of {n}; fit-norm exit {code}")
        if fit_skipped != n_bad or reader.skipped != n_bad:
            rnd.problems.append(
                f"skipped {fit_skipped} (fit-norm) and {reader.skipped} (batchify) "
                f"lines, injected {n_bad}"
            )
        batched = sum(b.batch_size for b in batches)
        if batched != n - n_bad:
            rnd.problems.append(f"batched {batched} trajectories, expected {n - n_bad}")
        finite = all(np.isfinite(b.features).all() and np.isfinite(b.targets).all() for b in batches)
        if not finite or not all(math.isfinite(v) for v in norm.to_dict().values()):
            rnd.problems.append("non-finite normalization or batch array")
        rnd.digests["norm_sha256"] = sha256(norm_bytes)
        rnd.digests["batches_sha256"] = _batches_digest(batches)
    return rnd


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str  # what one per-op latency sample is
    setup: object
    round: object
    ops: object  # state -> ops one round attempts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train",
            "closed loop, 1 caller: acceptance-test-06 training (B=25, S=32, d=32, 2 blocks), "
            "100 steps; autodiff and model carry the time; equal lengths, so no padding",
            "train step",
            train_setup,
            train_round,
            train_steps,
        ),
        Workload(
            "eval",
            "closed loop, 1 caller: forward-only rollout (horizon 5) and infill scoring of "
            "ragged 8/20/32-point trajectories; the KV-cache and padding path; only infill masks",
            "rollout trajectory",
            eval_setup,
            eval_round,
            lambda st: 2 * len(st.trajs),
        ),
        Workload(
            "ingest",
            "closed loop, 1 caller: JSONL write, fit-norm and batchify of ragged 4-64 point "
            "trajectories with 1% malformed lines; data, geo and cli only, never the model",
            "batch of ingested trajectories",
            ingest_setup,
            ingest_round,
            lambda st: len(st.trajs),
        ),
    )
}
