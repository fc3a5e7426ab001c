"""Evaluation: great-circle metrics, autoregressive rollout, and
teacher-forced / infill / rollout scoring that emits a machine-readable
report.

All three modes anchor comparisons in decoded degree space at the true
previous point, so a perfect predictor (one that emits the exact target
deltas) scores exactly 0.0 on every metric — no tolerance involved.
Rollout scoring compares against the delta-decoded ground-truth suffix,
which matches the original points to within a few float ulps.

The model path reads ``batch_size`` trajectories per forward pass: one
padded pass for next-step and infill scoring, and for rollout a prefill of
the padded prefixes followed by one K/V-cached decode step per generated
point.  Padding, batching and the cache change no bit, so every report and
every rollout point equals the per-trajectory full recompute.  A prediction
that is not finite once read in degrees and seconds raises
:class:`~tinytraj.training.NumericsError` naming its trajectory.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import masking
from .geo import (
    DT_DIVISOR_S,
    FEATURE_DIM,
    MAX_T,
    NormalizationParams,
    TrajPoint,
    Trajectory,
    featurize,
    featurize_next,
    step_targets,
)
from .model import KVCache, ModelConfig, ModelParams, forward_features
from .training import NumericsError

__all__ = [
    "CSV_COLUMNS",
    "EARTH_RADIUS_M",
    "EVAL_MODES",
    "MetricsReport",
    "NormalizationMismatchError",
    "evaluate",
    "haversine",
    "report_to_csv",
    "rollout",
]

EARTH_RADIUS_M = 6_371_000.0
EVAL_MODES = ("next_step", "infill", "rollout")
CSV_COLUMNS = ("ade_m", "fde_m", "time_mae_s", "n_points", "n_traj", "objective")

# predict_fn(model_input_features [S, F], traj_id) -> predictions [S, 3];
# defaults to the transformer forward pass. Injectable so tests can score a
# ground-truth oracle through the same pipeline.
PredictFn = Callable[[np.ndarray, str], np.ndarray]


class NormalizationMismatchError(RuntimeError):
    """Checkpoint and dataset use different normalization frames."""


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate displacement/time errors for one evaluation run.

    ``ade_m`` is the mean great-circle error over every scored point,
    ``fde_m`` the mean over trajectories of the final scored point's error,
    and ``time_mae_s`` the mean absolute interval error in seconds.
    """

    ade_m: float
    fde_m: float
    time_mae_s: float
    n_points: int
    n_traj: int
    objective: str

    def __post_init__(self):
        if self.ade_m < 0 or self.fde_m < 0 or self.time_mae_s < 0:
            raise ValueError("metrics must be non-negative")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in CSV_COLUMNS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def report_to_csv(report: MetricsReport) -> str:
    """Header plus a single data row, fixed column order."""
    row = ",".join(str(getattr(report, k)) for k in CSV_COLUMNS)
    return ",".join(CSV_COLUMNS) + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def haversine(p, q) -> float:
    """Great-circle distance in meters (mean Earth radius 6,371,000 m).

    Accepts ``TrajPoint`` or ``(lat, lon)`` pairs. Identical inputs return
    exactly 0.0.
    """
    lat1, lon1 = float(p[0]), float(p[1])
    lat2, lon2 = float(q[0]), float(q[1])
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(
        dlmb / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def _decode_step(
    prev: TrajPoint, pred_row: np.ndarray, norm: NormalizationParams
) -> TrajPoint:
    """One predicted (dlat, dlon, dt) row decoded onto the running point."""
    lat = prev.lat + float(pred_row[0]) * norm.scale_lat
    lon = prev.lon + float(pred_row[1]) * norm.scale_lon
    # an interval past MAX_T cannot be a real one; capping it keeps round()
    # finite and leaves the point for the trajectory check to reject
    dt = max(1, round(min(float(pred_row[2]) * DT_DIVISOR_S, MAX_T)))
    lat = min(90.0, max(-90.0, lat))
    lon = min(180.0, max(-180.0, lon))
    return TrajPoint(lat=lat, lon=lon, t=prev.t + dt)


def _rollout_batch(
    params: ModelParams,
    model_cfg: ModelConfig,
    norm: NormalizationParams,
    prefixes: Sequence[Trajectory],
    horizon: int,
    predict_fn: PredictFn | None,
) -> list[list[TrajPoint]]:
    """Extend every prefix by ``horizon`` points, all of them in step.

    The model path prefills a :class:`KVCache` with the padded prefixes and
    then decodes one new row per trajectory per step; an injected
    ``predict_fn`` is called instead on each trajectory's running feature
    matrix.  Only the new points are featurized (the features are row-local),
    and each one passes the trajectory check first.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if model_cfg.attention_mode != "causal":
        raise ValueError("rollout requires a causal model")
    if model_cfg.patch_len != 1:
        raise ValueError("rollout requires patch_len == 1")
    for prefix in prefixes:
        if len(prefix) < 2:
            raise ValueError(f"prefix needs at least 2 points, got {len(prefix)}")
        if len(prefix) + horizon > model_cfg.max_seq:
            raise ValueError(
                f"prefix of {len(prefix)} plus horizon {horizon} exceeds the "
                f"model's max_seq {model_cfg.max_seq}"
            )
    if horizon == 0:
        return [[] for _ in prefixes]
    ids = [p.id for p in prefixes]
    n = np.array([len(p) for p in prefixes])
    rows = np.arange(len(prefixes))
    # every position a prediction reads: the prefix and all but the last new point
    feats = np.zeros((len(prefixes), n.max() + horizon - 1, FEATURE_DIM))
    for b, prefix in enumerate(prefixes):
        feats[b, : n[b]] = featurize(prefix, norm).features
    if predict_fn is None:
        cache = KVCache(model_cfg, len(prefixes), feats.shape[1])
        prefill = forward_features(feats[:, : n.max()], params, model_cfg, lengths=n, cache=cache)
        preds = prefill.data[rows, n - 1]
    else:
        preds = _predict(feats, n, ids, norm, params, model_cfg, predict_fn)[rows, n - 1]
    prev = [TrajPoint(float(p.lat[-1]), float(p.lon[-1]), int(p.t[-1])) for p in prefixes]
    suffixes: list[list[TrajPoint]] = [[] for _ in prefixes]
    for k in range(horizon):
        _check_finite(preds[:, None], ids, norm)
        new = [_decode_step(p, row, norm) for p, row in zip(prev, preds)]
        at = n + k
        # every new point, the final one too, passes the trajectory check here
        new_feats = featurize_next(ids, at.tolist(), new, [p.t for p in prev], norm)
        for suffix, point in zip(suffixes, new):
            suffix.append(point)
        if k == horizon - 1:
            break
        feats[rows, at] = new_feats
        prev = new
        if predict_fn is None:
            step = forward_features(new_feats[:, None], params, model_cfg, cache=cache)
            preds = step.data[:, 0]
        else:
            preds = _predict(feats, at + 1, ids, norm, params, model_cfg, predict_fn)[rows, at]
    return suffixes


def rollout(
    params: ModelParams,
    model_cfg: ModelConfig,
    norm_params: NormalizationParams,
    prefix: Trajectory,
    horizon: int,
    *,
    predict_fn: PredictFn | None = None,
) -> list[TrajPoint]:
    """Autoregressively extend ``prefix`` by ``horizon`` points.

    Each step takes the final position's predicted (dlat, dlon, dt) and
    decodes it onto the last point with the interval floored at one second,
    so timestamps always strictly increase.  The model decodes through a
    K/V cache, bit for bit what a full forward pass over the running
    trajectory gives.  Returns the predicted suffix (empty for horizon 0).
    """
    return _rollout_batch(params, model_cfg, norm_params, [prefix], horizon, predict_fn)[0]


# ---------------------------------------------------------------------------
# evaluation modes
# ---------------------------------------------------------------------------


class _Accumulator:
    """Order-fixed metric reduction shared by all modes."""

    def __init__(self) -> None:
        self.point_errs: list[float] = []
        self.final_errs: list[float] = []
        self.time_errs: list[float] = []
        self.n_positions = 0
        self.n_traj = 0

    def report(self, objective: str) -> MetricsReport:
        if self.n_positions == 0:
            raise ValueError("evaluation scored no positions")
        ade = sum(self.point_errs) / len(self.point_errs) if self.point_errs else 0.0
        fde = sum(self.final_errs) / len(self.final_errs) if self.final_errs else 0.0
        tmae = sum(self.time_errs) / len(self.time_errs) if self.time_errs else 0.0
        return MetricsReport(
            ade_m=ade,
            fde_m=fde,
            time_mae_s=tmae,
            n_points=self.n_positions,
            n_traj=self.n_traj,
            objective=objective,
        )


def _spatial_error_m(
    lat: float, lon: float, pred: np.ndarray, target: np.ndarray, norm: NormalizationParams
) -> float:
    """Distance between the predicted and true steps taken from (lat, lon)."""
    p_hat = (
        lat + float(pred[0]) * norm.scale_lat,
        lon + float(pred[1]) * norm.scale_lon,
    )
    p_true = (
        lat + float(target[0]) * norm.scale_lat,
        lon + float(target[1]) * norm.scale_lon,
    )
    return haversine(p_hat, p_true)


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    """Consecutive lists of at most ``size`` items, read lazily."""
    it = iter(items)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def _check_finite(preds: np.ndarray, ids: Sequence[str], norm, lengths=None) -> None:
    """Raise :class:`NumericsError` naming the first trajectory whose
    predictions [B, S, 3] are not finite once read in degrees and seconds;
    only each row's first ``lengths[b]`` positions count."""
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(preds * (norm.scale_lat, norm.scale_lon, DT_DIVISOR_S)).all(axis=-1)
    if lengths is not None:
        ok |= np.arange(ok.shape[1]) >= np.asarray(lengths)[:, None]
    bad = np.flatnonzero(~ok.all(axis=1))
    if bad.size:
        raise NumericsError(f"trajectory {ids[bad[0]]!r}: non-finite prediction")


def _predict(
    batch: np.ndarray, lengths, ids, norm, params, model_cfg, predict_fn: PredictFn | None
) -> np.ndarray:
    """[B, S, 3] predictions for a padded [B, S, 7] input batch:
    ``predict_fn`` on each row's real positions, or one forward pass."""
    if predict_fn is None:
        preds = forward_features(batch, params, model_cfg, lengths=lengths).data
    else:
        preds = np.zeros(batch.shape[:2] + (3,))
        for b, (n, traj_id) in enumerate(zip(lengths, ids)):
            preds[b, :n] = np.asarray(predict_fn(batch[b, :n].copy(), traj_id), dtype=np.float64)
    _check_finite(preds, ids, norm, lengths)
    return preds


def _eval_masked(
    trajs, norm, params, model_cfg, predict_fn, batch_size, acc, draw, corrupt
) -> None:
    """Score the spatial error where ``draw(idx, n)``, the [n - 1, 2] mask of
    the idx-th trajectory (n points), hides the spatial slots and the interval
    error where it hides the temporal ones; ``corrupt`` also hides them from
    the model.  The final position has no successor step, so it is never
    scored."""
    idx = 0
    for chunk in _chunks(trajs, batch_size):
        hidden = [draw(idx + b, len(traj)) for b, traj in enumerate(chunk)]
        idx += len(chunk)
        acc.n_traj += len(chunk)
        scored = [(traj, h) for traj, h in zip(chunk, hidden) if h.any()]
        if not scored:
            continue
        seqs = [featurize(traj, norm) for traj, _ in scored]
        lengths = [len(traj) for traj, _ in scored]
        batch = np.zeros((len(scored), max(lengths), FEATURE_DIM))
        spec = np.zeros(batch.shape[:2] + (2,), dtype=bool)
        for b, (fs, (_, h)) in enumerate(zip(seqs, scored)):
            batch[b, : lengths[b]], spec[b, : lengths[b] - 1] = fs.features, h
        if corrupt:
            batch = masking.apply_mask(batch, masking.MaskSpec(spec), params.mask_emb).data
        ids = [traj.id for traj, _ in scored]
        preds = _predict(batch, lengths, ids, norm, params, model_cfg, predict_fn)
        for (traj, h), fs, pred in zip(scored, seqs, preds):
            lat, lon = traj.lat.tolist(), traj.lon.tolist()
            last_spatial: float | None = None
            for pos, (spatial, temporal) in enumerate(h.tolist()):
                if spatial:
                    err = _spatial_error_m(lat[pos], lon[pos], pred[pos], fs.targets[pos], norm)
                    acc.point_errs.append(err)
                    last_spatial = err
                if temporal:
                    acc.time_errs.append(
                        DT_DIVISOR_S * abs(float(pred[pos, 2]) - float(fs.targets[pos, 2]))
                    )
            acc.n_positions += int(h.any(axis=1).sum())
            if last_spatial is not None:
                acc.final_errs.append(last_spatial)


def _eval_rollout(
    trajs, norm, params, model_cfg, predict_fn, horizon, batch_size, acc
) -> None:
    if horizon < 1:
        raise ValueError(f"rollout evaluation needs horizon >= 1, got {horizon}")
    for chunk in _chunks(trajs, batch_size):
        # a prefix of >= 2 plus the scored suffix
        chunk = [traj for traj in chunk if len(traj) >= horizon + 2]
        if not chunk:
            continue
        prefixes = [traj.head(len(traj) - horizon) for traj in chunk]
        predicted = _rollout_batch(params, model_cfg, norm, prefixes, horizon, predict_fn)
        for traj, suffix in zip(chunk, predicted):
            # ground truth decoded through the same arithmetic as the rollout
            last = len(traj) - horizon - 1
            prev = TrajPoint(float(traj.lat[last]), float(traj.lon[last]), int(traj.t[last]))
            truth: list[TrajPoint] = []
            for step in step_targets(traj, norm, last):
                prev = _decode_step(prev, step, norm)
                truth.append(prev)
            errs = [haversine(p, t) for p, t in zip(suffix, truth)]
            acc.point_errs.extend(errs)
            acc.final_errs.append(errs[-1])
            acc.time_errs.extend(float(abs(p.t - t.t)) for p, t in zip(suffix, truth))
            acc.n_positions += horizon
            acc.n_traj += 1


def evaluate(
    params: ModelParams,
    model_cfg: ModelConfig,
    trajs: Iterable[Trajectory],
    norm_params: NormalizationParams,
    mode: str = "next_step",
    *,
    horizon: int = 5,
    mask_ratio: float = masking.DEFAULT_MASK_RATIO,
    seed: int = 0,
    batch_size: int = 12,
    dataset_norm: NormalizationParams | None = None,
    predict_fn: PredictFn | None = None,
) -> MetricsReport:
    """Score a model over a trajectory corpus.

    next_step: teacher-forced one-step errors at every position with a
    successor.  infill: errors only at the slots a per-trajectory seeded
    dimension mask hides from the model (never the final position); the two
    share one scorer.  rollout: errors over an
    ``horizon``-step autoregressive continuation of each trajectory's
    prefix; trajectories too short for the horizon are skipped.

    ``batch_size`` is the number of trajectories per forward pass: the
    corpus is read lazily, ``batch_size`` trajectories at a time, and each
    group runs as one padded forward pass (next_step, infill) or one
    K/V-cached decode (rollout).  Padding and batching change no bit, so
    every report is independent of ``batch_size``; a larger value trades
    memory (the [B, H, S, S] attention temporaries) for fewer passes.
    Passing the corpus's own ``dataset_norm`` asserts it matches the
    model's frame; a mismatch raises :class:`NormalizationMismatchError`.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if model_cfg.patch_len != 1:
        raise ValueError("evaluation requires patch_len == 1 models")
    if dataset_norm is not None and not norm_params.approx_equal(dataset_norm):
        raise NormalizationMismatchError(
            "dataset normalization differs from the model's; refusing to "
            "score predictions in the wrong frame"
        )
    acc = _Accumulator()
    if mode == "rollout":
        _eval_rollout(trajs, norm_params, params, model_cfg, predict_fn, horizon, batch_size, acc)
        return acc.report(mode)

    def draw(idx: int, n: int) -> np.ndarray:
        if mode == "next_step":
            return masking.successor_mask([n], n - 1).hidden[0]
        # one substream per trajectory: the draw depends only on (seed, idx),
        # never on batch grouping
        rng = np.random.default_rng([seed, idx])
        return masking.sample_dimension_mask(n - 1, mask_ratio, rng).hidden

    corrupt = mode == "infill"
    _eval_masked(trajs, norm_params, params, model_cfg, predict_fn, batch_size, acc, draw, corrupt)
    return acc.report(mode)
