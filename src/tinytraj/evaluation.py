"""Evaluation: great-circle metrics, autoregressive rollout, and
teacher-forced / infill / rollout scoring that emits a machine-readable
report.

All three modes anchor comparisons in decoded degree space at the true
previous point, so a perfect predictor (one that emits the exact target
deltas) scores exactly 0.0 on every metric — no tolerance involved.
Rollout scoring compares against the delta-decoded ground-truth suffix,
which matches the original points to within a few float ulps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import masking
from .geo import (
    DT_DIVISOR_S,
    NormalizationParams,
    TrajPoint,
    Trajectory,
    featurize,
)
from .model import ModelConfig, ModelParams, forward_features

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
    dt = max(1, int(round(float(pred_row[2]) * DT_DIVISOR_S)))
    lat = min(90.0, max(-90.0, lat))
    lon = min(180.0, max(-180.0, lon))
    return TrajPoint(lat=lat, lon=lon, t=prev.t + dt)


def _model_predict(params: ModelParams, model_cfg: ModelConfig) -> PredictFn:
    def predict(features: np.ndarray, traj_id: str) -> np.ndarray:
        return forward_features(features, params, model_cfg).data

    return predict


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

    Each step featurizes the running trajectory, takes the final position's
    predicted (dlat, dlon, dt), and decodes it onto the last point with the
    interval floored at one second — so timestamps always strictly increase.
    Returns the predicted suffix (empty for horizon 0).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if model_cfg.attention_mode != "causal":
        raise ValueError("rollout requires a causal model")
    if model_cfg.patch_len != 1:
        raise ValueError("rollout requires patch_len == 1")
    if len(prefix) < 2:
        raise ValueError(f"prefix needs at least 2 points, got {len(prefix)}")
    if len(prefix) + horizon > model_cfg.max_seq:
        raise ValueError(
            f"prefix of {len(prefix)} plus horizon {horizon} exceeds the "
            f"model's max_seq {model_cfg.max_seq}"
        )
    predict = predict_fn or _model_predict(params, model_cfg)
    lat, lon, t = prefix.lat.tolist(), prefix.lon.tolist(), prefix.t.tolist()
    prev = TrajPoint(lat[-1], lon[-1], t[-1])
    suffix: list[TrajPoint] = []
    for _ in range(horizon):
        fs = featurize(Trajectory.from_columns(prefix.id, lat, lon, t), norm_params)
        preds = np.asarray(predict(fs.features, prefix.id), dtype=np.float64)
        prev = _decode_step(prev, preds[-1], norm_params)
        lat.append(prev.lat)
        lon.append(prev.lon)
        t.append(prev.t)
        suffix.append(prev)
    return suffix


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


def _eval_next_step(
    trajs, norm, predict: PredictFn, acc: _Accumulator
) -> None:
    for traj in trajs:
        fs = featurize(traj, norm)
        preds = np.asarray(predict(fs.features, traj.id), dtype=np.float64)
        lat, lon = traj.lat.tolist(), traj.lon.tolist()
        errs = []
        for i in range(len(traj) - 1):
            errs.append(_spatial_error_m(lat[i], lon[i], preds[i], fs.targets[i], norm))
            acc.time_errs.append(
                DT_DIVISOR_S * abs(float(preds[i, 2]) - float(fs.targets[i, 2]))
            )
        acc.point_errs.extend(errs)
        acc.final_errs.append(errs[-1])
        acc.n_positions += len(errs)
        acc.n_traj += 1


def _eval_infill(
    trajs, norm, params, predict: PredictFn, mask_ratio, seed, acc: _Accumulator
) -> None:
    for idx, traj in enumerate(trajs):
        # one substream per trajectory: the draw depends only on (seed, idx),
        # never on batch grouping
        rng = np.random.default_rng([seed, idx])
        length = len(traj)
        fs = featurize(traj, norm)
        # the final position has no successor step, so it is never scored
        spec = masking.sample_dimension_mask(length - 1, mask_ratio, rng)
        acc.n_traj += 1
        if not spec.positions:
            continue
        model_input = masking.apply_mask(fs.features, spec, params.mask_emb).data
        preds = np.asarray(predict(model_input, traj.id), dtype=np.float64)
        lat, lon = traj.lat.tolist(), traj.lon.tolist()
        last_spatial: float | None = None
        for pos in sorted(spec.position_dims):
            dims = spec.position_dims[pos]
            if masking.SPATIAL in dims:
                err = _spatial_error_m(lat[pos], lon[pos], preds[pos], fs.targets[pos], norm)
                acc.point_errs.append(err)
                last_spatial = err
            if masking.TEMPORAL in dims:
                acc.time_errs.append(
                    DT_DIVISOR_S * abs(float(preds[pos, 2]) - float(fs.targets[pos, 2]))
                )
            acc.n_positions += 1
        if last_spatial is not None:
            acc.final_errs.append(last_spatial)


def _eval_rollout(
    trajs, norm, params, model_cfg, predict: PredictFn, horizon, acc: _Accumulator
) -> None:
    if horizon < 1:
        raise ValueError(f"rollout evaluation needs horizon >= 1, got {horizon}")
    for traj in trajs:
        length = len(traj)
        if length < horizon + 2:  # prefix of >= 2 plus the scored suffix
            continue
        split_at = length - horizon
        fs = featurize(traj, norm)
        predicted = rollout(
            params, model_cfg, norm, traj.head(split_at), horizon, predict_fn=predict
        )
        # ground truth decoded through the same arithmetic as the rollout
        truth: list[TrajPoint] = []
        last = split_at - 1
        prev = TrajPoint(float(traj.lat[last]), float(traj.lon[last]), int(traj.t[last]))
        for k in range(horizon):
            prev = _decode_step(prev, fs.targets[split_at - 1 + k], norm)
            truth.append(prev)
        errs = [haversine(p, t) for p, t in zip(predicted, truth)]
        acc.point_errs.extend(errs)
        acc.final_errs.append(errs[-1])
        acc.time_errs.extend(
            float(abs(p.t - t.t)) for p, t in zip(predicted, truth)
        )
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
    batch_size: int = 32,
    dataset_norm: NormalizationParams | None = None,
    predict_fn: PredictFn | None = None,
) -> MetricsReport:
    """Score a model over a trajectory corpus.

    next_step: teacher-forced one-step errors at every supervised position.
    infill: errors only at positions hidden by a per-trajectory seeded
    dimension mask (never the final position). rollout: errors over an
    ``horizon``-step autoregressive continuation of each trajectory's
    prefix; trajectories too short for the horizon are skipped.

    ``batch_size`` only sets traversal granularity — every metric is
    computed per trajectory, so results are independent of it. Passing the
    corpus's own ``dataset_norm`` asserts it matches the model's frame;
    a mismatch raises :class:`NormalizationMismatchError`.
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
    predict = predict_fn or _model_predict(params, model_cfg)
    if mode == "next_step":
        _eval_next_step(trajs, norm_params, predict, acc)
    elif mode == "infill":
        _eval_infill(trajs, norm_params, params, predict, mask_ratio, seed, acc)
    else:
        _eval_rollout(trajs, norm_params, params, model_cfg, predict, horizon, acc)
    return acc.report(mode)
