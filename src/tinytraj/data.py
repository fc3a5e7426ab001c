"""Trajectory ingestion and batching.

Provides a deterministic synthetic-trajectory generator, streaming JSONL
input/output (one trajectory per line, constant memory in corpus size),
padding batchification, and hash-based train/validation splitting. Everything
works on columns: the reader parses a fixed number of lines at a time into
one set of ``lat``/``lon``/``t`` columns, checks them in one vectorized pass
and yields trajectories over read-only views of them; a batch is featurized
in one pass over its trajectories' concatenated columns and scattered into
its padded arrays at once. No per-point objects are built on the compiled
way from a JSONL line to a batch, and batches are prepared inline on the
caller's thread.

A chunk's lines are parsed by one call into the compiled kernel
(``tinytraj_parse_chunk`` in ``_kernel.c``), which writes each line of the
plain shape, ``{"id": <string>, "points": [[lat, lon, t], ...]}`` with at
least two points, straight into the columns, and declines every other line:
other keys or values, an id with an escape, a control byte or a non-ASCII
byte, ``NaN`` or ``Infinity``, an integer coordinate of more than 15 digits,
a time that is not an integer of at most 18 digits.  Every other line takes
the per-line path, ``json.loads`` and :func:`trajectory_from_record`: a
declined line, a record the chunk check rejects, and every line where the
kernel cannot be built or the parser fails its load check.  Both give the
same trajectories, column bits and warnings, in the same order.  On a shared
2-vCPU x86-64 host a chunk of the ``ingest`` benchmark's file (16 lines of 4
to 64 points) takes 217–267 µs to parse and check the compiled way, against
796–910 µs by the per-line path (best of 5 × 5 passes over the file's 122
chunks, in each of nine processes).

JSONL record schema: ``{"id": <string>, "points": [[lat, lon, t], ...]}``,
where ``lat`` and ``lon`` are JSON numbers (never bools or strings) and ``t``
is a JSON integer in ``[0, geo.MAX_T)``; a line that is not
UTF-8 JSON, breaks the schema or breaks a trajectory invariant is skipped with
a warning.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import itertools
import json
import os
import secrets
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import geo
from .geo import JsonConfig, NormalizationParams, Trajectory

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
class SyntheticConfig(JsonConfig):
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
        yield Trajectory.from_columns(f"syn-{cfg.seed}-{idx:05d}", lats, lons, ts)


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------


def trajectory_to_record(traj: Trajectory) -> dict:
    # Python floats and ints, so the JSON text is the shortest round-trip repr
    points = zip(traj.lat.tolist(), traj.lon.tolist(), traj.t.tolist())
    return {"id": traj.id, "points": [list(p) for p in points]}


def trajectory_from_record(rec: dict) -> Trajectory:
    """Parse one JSONL record; coordinates must be JSON numbers and ``t`` a
    JSON integer (``Trajectory`` rejects anything else, bools included)."""
    if not isinstance(rec, dict):
        raise ValueError(f"record must be an object, got {type(rec).__name__}")
    traj_id = rec["id"]
    if not isinstance(traj_id, str):
        raise ValueError(f"'id' must be a string, got {type(traj_id).__name__}")
    return Trajectory(id=traj_id, points=rec["points"])


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path`` for the block to write.  It is renamed
    over ``path`` when the block succeeds and removed when the block raises
    (an interrupt too), so a failed write leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(trajs: Iterable[Trajectory], path: str | Path) -> int:
    """Write one trajectory per line; returns the number written."""
    # json.dumps's text without its check for circular references: a record
    # is built fresh from a trajectory's columns and holds none
    encode = json.JSONEncoder(check_circular=False).encode
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajs:
            fh.write(encode(trajectory_to_record(traj)))
            fh.write("\n")
            n += 1
    return n


# lines read, parsed and checked as one set of columns: half of a batch of
# 32, so that each such batch parses about as many lines as the next
_CHUNK_LINES = 16
# what a malformed line raises on the per-line path
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)

# the compiled chunk parser, or False when readers read every line by the
# per-line path; chosen when the first reader is opened (None until then)
_parse = None


def _parser():
    """The compiled chunk parser (``_kernel.load_parser``), or None where the
    kernel cannot be built or the parser fails its load check."""
    global _parse
    if _parse is None:
        from . import _kernel

        _parse = _kernel.load_parser() or False
    return _parse or None


@contextlib.contextmanager
def _parsing(compiled: bool):
    # the tests' hook: readers opened in the block parse with the compiled
    # parser where this host has one (compiled), else every line by the
    # per-line path
    global _parse
    chosen = _parser() or False
    _parse = chosen if compiled else False
    try:
        yield
    finally:
        _parse = chosen


def _segments(ids, lat, lon, t, counts) -> list[Trajectory | ValueError]:
    """The trajectory check over records laid end to end in the columns:
    each record's trajectory, over read-only views of the checked columns,
    or the error the check gives it."""
    (lat, lon, t), faults = geo._check_segments(ids, lat, lon, t, counts)
    ends = np.cumsum(counts).tolist()
    return [
        Trajectory._checked(traj_id, lat[b - n:b], lon[b - n:b], t[b - n:b])
        if fault is None
        else fault
        for traj_id, n, b, fault in zip(ids, counts, ends, faults)
    ]


def _read_chunk(
    lines: list[bytes], first: int, parse
) -> Iterator[tuple[int, Trajectory | Exception]]:
    """``(line number, trajectory or error)`` of each non-blank line, in order.

    ``parse``, the compiled parser, reads the lines of the plain shape into
    one set of columns, which the trajectory check then runs over once.
    Every other line takes the per-line path, ``json.loads`` and
    :func:`trajectory_from_record`: a line the parser declines, one whose
    record the check rejects (so that the error names the values as JSON
    gave them: an int as an int) and, when there is no ``parse``, all lines.
    """
    records = [None] * len(lines)
    if parse is not None:
        taken, columns = parse(lines)
        ids = [rec[0] for rec in taken if rec]
        counts = [rec[1] for rec in taken if rec]
        checked = iter(_segments(ids, *columns, counts) if ids else ())
        records = [rec and next(checked) for rec in taken]  # None where declined
        del columns  # the parser's buffers: the checked columns are copies
    for lineno, line, rec in zip(itertools.count(first), lines, records):
        if type(rec) is Trajectory:
            yield lineno, rec
        elif line.strip():  # else blank
            try:
                rec = trajectory_from_record(json.loads(line.decode("utf-8")))
            except _MALFORMED as exc:
                rec = exc
            yield lineno, rec


class JsonlTrajectoryReader:
    """Re-iterable, line-streaming reader over a JSONL trajectory file.

    Each ``__iter__`` re-opens the file and reads it in chunks of a fixed
    number of lines, so memory stays constant in corpus size.  The records of
    a chunk that the compiled parser takes are parsed into one set of
    ``lat``/``lon``/``t`` columns and checked in one vectorized pass; the
    trajectories it yields are read-only views of those columns.  Every line
    is skipped, with the same :class:`MalformedLineWarning` text naming the
    line number, exactly when :func:`trajectory_from_record` rejects it;
    ``skipped`` holds the running count for the current/most recent pass.  A UTF-8 byte-order mark at the
    start of the file is ignored (RFC 8259, section 8.1); one anywhere else
    makes its line malformed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"no such trajectory file: {self.path}")
        self.skipped = 0
        self._parse = _parser()  # loaded here, not inside the first pass

    def __iter__(self) -> Iterator[Trajectory]:
        self.skipped = 0
        # bytes are decoded line by line, so one undecodable line is skipped
        # like any other malformed line instead of ending the pass
        with open(self.path, "rb") as fh:
            if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
                fh.seek(0)
            first = 1
            while lines := list(itertools.islice(fh, _CHUNK_LINES)):
                for lineno, item in _read_chunk(lines, first, self._parse):
                    if isinstance(item, Trajectory):
                        yield item
                        continue
                    self.skipped += 1
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping malformed trajectory "
                        f"({item})",
                        MalformedLineWarning,
                        stacklevel=2,
                    )
                first += len(lines)


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
        lengths = np.array(self.lengths).reshape(b)
        short = lengths < 2
        bad = short | (self.pad_mask != (np.arange(s) < lengths[:, None])).any(axis=1)
        if bad.any():
            row = int(bad.argmax())
            if short[row]:
                raise ValueError(f"batch row {row} has {self.lengths[row]} valid positions; "
                                 f"need at least 2")
            raise ValueError(f"batch row {row}: padding must be a contiguous suffix")

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def seq_len(self) -> int:
        return self.features.shape[1]


def _stack(heads: list[Trajectory], s_max: int, params: NormalizationParams) -> Batch:
    # one featurize pass over the batch's columns, then one scatter per array:
    # a row's valid slots, in order, are its trajectory's rows.  The arrays
    # the batch keeps are allocated before the pass's temporaries, so that
    # freeing those leaves no holes under them (the other way round, the
    # ingest benchmark's peak RSS grew by 2 MB)
    lengths = np.array([len(traj) for traj in heads])
    pad_mask = np.arange(s_max) < lengths[:, None]
    features = np.zeros((len(heads), s_max, geo.FEATURE_DIM), dtype=np.float64)
    padded_targets = np.zeros((len(heads), s_max, TARGET_DIM), dtype=np.float64)
    features[pad_mask], padded_targets[pad_mask] = geo.featurize_columns(
        np.concatenate([traj.lat for traj in heads]),
        np.concatenate([traj.lon for traj in heads]),
        np.concatenate([traj.t for traj in heads]),
        lengths,
        params,
    )
    return Batch(
        features=features,
        targets=padded_targets,
        pad_mask=pad_mask,
        ids=tuple(traj.id for traj in heads),
        lengths=tuple(lengths.tolist()),
    )


def batchify(
    trajs: Iterable[Trajectory],
    batch_size: int,
    s_max: int,
    params: NormalizationParams,
) -> Iterator[Batch]:
    """Featurize, truncate to ``s_max``, pad, and group into batches.

    Full batches stream out as they fill; a partial final batch is emitted
    rather than dropped.  Each batch is featurized in one pass over its
    trajectories' concatenated columns.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if s_max < 2:
        raise ValueError(f"s_max must be >= 2, got {s_max}")

    def gen() -> Iterator[Batch]:
        buf: list[Trajectory] = []
        for traj in trajs:
            buf.append(traj.head(s_max))
            if len(buf) == batch_size:
                yield _stack(buf, s_max, params)
                buf = []
        if buf:
            yield _stack(buf, s_max, params)

    return gen()


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
    ):
        if iter(trajs) is trajs:  # one-shot iterator: buffer it
            trajs = list(trajs)
        self.source = trajs
        self.batch_size = batch_size
        self.s_max = s_max
        self.params = params

    def __iter__(self) -> Iterator[Batch]:
        return batchify(self.source, self.batch_size, self.s_max, self.params)


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
