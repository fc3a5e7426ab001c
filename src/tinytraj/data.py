"""Trajectory ingestion and batching.

Provides a deterministic synthetic-trajectory generator, streaming JSONL
input/output (one trajectory per line, constant memory in corpus size),
padding batchification, and hash-based train/validation splitting.

JSONL record schema: ``{"id": <string>, "points": [[lat, lon, t], ...]}``.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import geo
from .geo import NormalizationParams, TrajPoint, Trajectory

__all__ = [
    "Batch",
    "BatchLoader",
    "JsonlTrajectoryReader",
    "MalformedLineWarning",
    "SyntheticConfig",
    "assign_split",
    "batchify",
    "generate_synthetic",
    "split",
    "stream_jsonl",
    "trajectory_from_record",
    "trajectory_to_record",
    "write_jsonl",
]

TARGET_DIM = 3


class MalformedLineWarning(UserWarning):
    """A JSONL line could not be parsed into a trajectory and was skipped."""


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters for the synthetic trajectory generator.

    Each trajectory samples waypoints uniformly inside ``bbox``, rescales the
    waypoint polyline so its total length equals ``speed * (points - 1)`` for
    a per-trajectory speed drawn from ``[speed_min, speed_max]`` (degrees per
    step), walks it at equal arc-length steps, and adds isotropic Gaussian
    positional noise of standard deviation ``noise_sigma`` degrees.
    Timestamps advance by Gaussian-jittered intervals floored at one second.
    """

    n_traj: int = 100
    points_per_traj: int = 32
    n_waypoints: int = 4
    speed_min: float = 1e-4
    speed_max: float = 5e-4
    noise_sigma: float = 0.0
    dt_mean_s: float = 30.0
    dt_std_s: float = 5.0
    bbox: tuple[float, float, float, float] = (52.3, 13.1, 52.7, 13.7)
    seed: int = 0

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.points_per_traj < 2:
            raise ValueError(
                f"points_per_traj must be >= 2, got {self.points_per_traj}"
            )
        if self.n_waypoints < 2:
            raise ValueError(f"n_waypoints must be >= 2, got {self.n_waypoints}")
        if not (0 < self.speed_min <= self.speed_max):
            raise ValueError(
                f"need 0 < speed_min <= speed_max, got "
                f"[{self.speed_min}, {self.speed_max}]"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.dt_mean_s <= 0 or self.dt_std_s < 0:
            raise ValueError(
                f"need dt_mean_s > 0 and dt_std_s >= 0, got "
                f"({self.dt_mean_s}, {self.dt_std_s})"
            )
        lat_min, lon_min, lat_max, lon_max = self.bbox
        if not (-90 <= lat_min < lat_max <= 90 and -180 <= lon_min < lon_max <= 180):
            raise ValueError(f"bbox must be (lat_min, lon_min, lat_max, lon_max) "
                             f"with positive extent, got {self.bbox}")

    def to_dict(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "points_per_traj": self.points_per_traj,
            "n_waypoints": self.n_waypoints,
            "speed_min": self.speed_min,
            "speed_max": self.speed_max,
            "noise_sigma": self.noise_sigma,
            "dt_mean_s": self.dt_mean_s,
            "dt_std_s": self.dt_std_s,
            "bbox": list(self.bbox),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticConfig":
        d = dict(d)
        if "bbox" in d:
            d["bbox"] = tuple(d["bbox"])
        return cls(**d)


def generate_synthetic(cfg: SyntheticConfig) -> Iterator[Trajectory]:
    """Yield ``cfg.n_traj`` deterministic synthetic trajectories.

    Every random draw comes from a per-trajectory substream seeded by
    ``(cfg.seed, index)``, so corpora are reproducible and independent of
    consumption order. Noise variates are drawn even when ``noise_sigma`` is
    zero, so runs that differ only in sigma share the underlying paths.
    """
    lat_min, lon_min, lat_max, lon_max = cfg.bbox
    p = cfg.points_per_traj
    for idx in range(cfg.n_traj):
        rng = np.random.default_rng([cfg.seed, idx])
        way_lat = rng.uniform(lat_min, lat_max, cfg.n_waypoints)
        way_lon = rng.uniform(lon_min, lon_max, cfg.n_waypoints)
        speed = rng.uniform(cfg.speed_min, cfg.speed_max)
        noise = rng.normal(0.0, 1.0, (p, 2))  # drawn unconditionally
        t0 = int(rng.integers(0, 2**31 - 2**27))
        dts = np.maximum(
            1, np.rint(rng.normal(cfg.dt_mean_s, cfg.dt_std_s, p - 1))
        ).astype(np.int64)

        seg = np.hypot(np.diff(way_lat), np.diff(way_lon))
        total = float(seg.sum())
        target_len = speed * (p - 1)
        if total > 0.0:
            factor = target_len / total
            way_lat = way_lat[0] + (way_lat - way_lat[0]) * factor
            way_lon = way_lon[0] + (way_lon - way_lon[0]) * factor
            cum = np.concatenate([[0.0], np.cumsum(seg * factor)])
        else:  # degenerate polyline: all waypoints coincide
            cum = np.arange(cfg.n_waypoints, dtype=np.float64)
            target_len = 0.0
        arc = np.linspace(0.0, target_len, p)
        lats = np.interp(arc, cum, way_lat) + cfg.noise_sigma * noise[:, 0]
        lons = np.interp(arc, cum, way_lon) + cfg.noise_sigma * noise[:, 1]
        lats = np.clip(lats, -90.0, 90.0)
        lons = np.clip(lons, -180.0, 180.0)
        ts = t0 + np.concatenate([[0], np.cumsum(dts)])

        points = [
            TrajPoint(lat=float(lats[k]), lon=float(lons[k]), t=int(ts[k]))
            for k in range(p)
        ]
        yield Trajectory(id=f"syn-{cfg.seed}-{idx:05d}", points=points)


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------


def trajectory_to_record(traj: Trajectory) -> dict:
    return {"id": traj.id, "points": [[p.lat, p.lon, p.t] for p in traj.points]}


def trajectory_from_record(rec: dict) -> Trajectory:
    if not isinstance(rec, dict):
        raise ValueError(f"record must be an object, got {type(rec).__name__}")
    traj_id = rec["id"]
    if not isinstance(traj_id, str):
        raise ValueError(f"'id' must be a string, got {type(traj_id).__name__}")
    raw_points = rec["points"]
    points = []
    for entry in raw_points:
        lat, lon, t = entry
        points.append(TrajPoint(lat=float(lat), lon=float(lon), t=int(t)))
    return Trajectory(id=traj_id, points=points)


def write_jsonl(trajs: Iterable[Trajectory], path: str | Path) -> int:
    """Write one trajectory per line; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajs:
            fh.write(json.dumps(trajectory_to_record(traj)))
            fh.write("\n")
            n += 1
    return n


class JsonlTrajectoryReader:
    """Re-iterable, line-streaming reader over a JSONL trajectory file.

    Each ``__iter__`` re-opens the file and yields trajectories one at a
    time, so memory stays constant in corpus size. Malformed lines are
    skipped with a :class:`MalformedLineWarning` naming the line number;
    ``skipped`` holds the running count for the current/most recent pass.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"no such trajectory file: {self.path}")
        self.skipped = 0

    def __iter__(self) -> Iterator[Trajectory]:
        self.skipped = 0
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    traj = trajectory_from_record(json.loads(line))
                except (KeyError, TypeError, ValueError) as exc:
                    self.skipped += 1
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping malformed trajectory "
                        f"({exc})",
                        MalformedLineWarning,
                        stacklevel=2,
                    )
                    continue
                yield traj


def stream_jsonl(path: str | Path) -> JsonlTrajectoryReader:
    """Open ``path`` for streaming; raises ``FileNotFoundError`` if absent."""
    return JsonlTrajectoryReader(path)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """A padded batch of featurized trajectories.

    ``pad_mask[b, s]`` is True where position ``s`` of row ``b`` holds a real
    point; padding is always a contiguous suffix and every row keeps at least
    two valid positions. ``targets`` are zero on padded slots.
    """

    features: np.ndarray  # [B, S, FEATURE_DIM]
    targets: np.ndarray  # [B, S, 3]
    pad_mask: np.ndarray  # [B, S] bool, True = valid
    ids: tuple[str, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        b, s, f = self.features.shape
        if self.targets.shape != (b, s, TARGET_DIM):
            raise ValueError(
                f"targets shape {self.targets.shape} does not match "
                f"features batch {(b, s, TARGET_DIM)}"
            )
        if self.pad_mask.shape != (b, s):
            raise ValueError(
                f"pad_mask shape {self.pad_mask.shape} does not match {(b, s)}"
            )
        if len(self.ids) != b or len(self.lengths) != b:
            raise ValueError("ids/lengths must have one entry per batch row")
        for row, length in enumerate(self.lengths):
            if length < 2:
                raise ValueError(f"batch row {row} has {length} valid positions; "
                                 f"need at least 2")
            expected = np.arange(s) < length
            if not np.array_equal(self.pad_mask[row], expected):
                raise ValueError(
                    f"batch row {row}: padding must be a contiguous suffix"
                )

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def seq_len(self) -> int:
        return self.features.shape[1]


def _pack(seqs: list[geo.FeatureSequence], s_max: int) -> Batch:
    b = len(seqs)
    features = np.zeros((b, s_max, geo.FEATURE_DIM), dtype=np.float64)
    targets = np.zeros((b, s_max, TARGET_DIM), dtype=np.float64)
    pad_mask = np.zeros((b, s_max), dtype=bool)
    lengths = []
    for row, fs in enumerate(seqs):
        n = len(fs)
        features[row, :n] = fs.features
        targets[row, :n] = fs.targets
        pad_mask[row, :n] = True
        lengths.append(n)
    return Batch(
        features=features,
        targets=targets,
        pad_mask=pad_mask,
        ids=tuple(fs.traj_id for fs in seqs),
        lengths=tuple(lengths),
    )


def _truncate(traj: Trajectory, s_max: int) -> Trajectory:
    if len(traj) <= s_max:
        return traj
    return Trajectory(id=traj.id, points=list(traj.points[:s_max]))


def batchify(
    trajs: Iterable[Trajectory],
    batch_size: int,
    s_max: int,
    params: NormalizationParams,
    *,
    prefetch: bool = False,
) -> Iterator[Batch]:
    """Featurize, truncate to ``s_max``, pad, and group into batches.

    Full batches stream out as they fill; a partial final batch is emitted
    rather than dropped. With ``prefetch=True`` one background worker
    prepares the next batch ahead of the consumer through a bounded queue;
    the stream order is unchanged.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if s_max < 2:
        raise ValueError(f"s_max must be >= 2, got {s_max}")

    def gen() -> Iterator[Batch]:
        buf: list[geo.FeatureSequence] = []
        for traj in trajs:
            if len(traj) < 2:  # unreachable for validated trajectories
                warnings.warn(
                    f"skipping trajectory {traj.id!r}: fewer than 2 points",
                    stacklevel=2,
                )
                continue
            buf.append(geo.featurize(_truncate(traj, s_max), params))
            if len(buf) == batch_size:
                yield _pack(buf, s_max)
                buf = []
        if buf:
            yield _pack(buf, s_max)

    inner = gen()
    return _Prefetcher(inner) if prefetch else inner


class _Done:
    pass


_DONE = _Done()


class _Prefetcher:
    """Single worker thread pushing items through a bounded queue.

    A consumer that stops early need not drain the queue: once the
    prefetcher is garbage-collected, the worker stops at its next ``put``
    and exits.
    """

    def __init__(self, source: Iterator, depth: int = 2):
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._stop = threading.Event()
        # the worker must not reference self, or it would keep it alive
        self._thread = threading.Thread(
            target=_fill, args=(source, self._queue, self._stop), daemon=True
        )
        self._thread.start()

    def __del__(self) -> None:
        self._stop.set()

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        item = self._queue.get()
        if item is _DONE:
            raise StopIteration
        if isinstance(item, BaseException):
            raise item
        return item


_PUT_POLL_S = 0.05  # how often a worker blocked on a full queue checks for stop


def _fill(source: Iterator, out: queue.Queue, stop: threading.Event) -> None:
    def put(item) -> bool:
        while not stop.is_set():
            try:
                out.put(item, timeout=_PUT_POLL_S)
                return True
            except queue.Full:
                pass
        return False

    try:
        for item in source:
            if not put(item):
                return
        put(_DONE)
    except Exception as exc:  # surface worker failures to the consumer
        put(exc)


class BatchLoader:
    """Re-iterable batch stream over a re-iterable trajectory source.

    One-shot iterators (e.g. a fresh generator) are buffered into a list at
    construction so every epoch sees the same corpus; re-iterable sources
    such as :class:`JsonlTrajectoryReader` or lists are streamed anew on
    every pass.
    """

    def __init__(
        self,
        trajs: Iterable[Trajectory],
        batch_size: int,
        s_max: int,
        params: NormalizationParams,
        *,
        prefetch: bool = False,
    ):
        if iter(trajs) is trajs:  # one-shot iterator: buffer it
            trajs = list(trajs)
        self.source = trajs
        self.batch_size = batch_size
        self.s_max = s_max
        self.params = params
        self.prefetch = prefetch

    def __iter__(self) -> Iterator[Batch]:
        return iter(
            batchify(
                self.source,
                self.batch_size,
                self.s_max,
                self.params,
                prefetch=self.prefetch,
            )
        )


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def assign_split(traj_id: str, val_fraction: float, seed: int) -> str:
    """Deterministically assign one id to ``"train"`` or ``"val"``.

    The assignment hashes ``seed`` and id together, so it is stable across
    runs and independent of corpus order or size.
    """
    digest = hashlib.sha256(f"{seed}|{traj_id}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return "val" if u < val_fraction else "train"


@dataclass
class _SplitView:
    source: Iterable[Trajectory]
    name: str
    val_fraction: float
    seed: int

    def __iter__(self) -> Iterator[Trajectory]:
        for traj in self.source:
            if assign_split(traj.id, self.val_fraction, self.seed) == self.name:
                yield traj


def split(
    trajs: Iterable[Trajectory], val_fraction: float, seed: int
) -> tuple[_SplitView, _SplitView]:
    """Split a trajectory source into disjoint, exhaustive train/val streams.

    Returns two lazily filtered views; a one-shot input iterator is buffered
    so both views can be consumed independently.
    """
    if not (0.0 < val_fraction < 1.0):
        raise ValueError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    if iter(trajs) is trajs:
        trajs = list(trajs)
    return (
        _SplitView(trajs, "train", val_fraction, seed),
        _SplitView(trajs, "val", val_fraction, seed),
    )
