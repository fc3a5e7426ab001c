"""GPS trajectories and their reversible model-space encodings.

A trajectory is a sequence of (lat, lon, t) fixes, held as read-only
``lat``/``lon`` (float64) and ``t`` (int64) columns.  One vectorized check
over segments of columns decides which fixes are valid, for a trajectory
built here, for a chunk of JSONL records and for rollout's new points alike.
For modeling, positions are normalized around the corpus center,
timestamps are split into UTC calendar components with integer arithmetic,
and consecutive points are reduced to (dlat, dlon, dt) deltas so the model
predicts motion rather than absolute position.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import types
import typing
from dataclasses import MISSING, astuple, dataclass, fields
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DT_DIVISOR_S",
    "FEATURE_DIM",
    "MAX_T",
    "SPATIAL_SLOTS",
    "TEMPORAL_SLOTS",
    "DeltaSequence",
    "FeatureSequence",
    "JsonConfig",
    "NormalizationParams",
    "TrajPoint",
    "Trajectory",
    "compute_center",
    "decompose_time",
    "delta_encode",
    "delta_decode",
    "denormalize",
    "featurize",
    "featurize_columns",
    "normalize",
]

# Feature layout for one point:
#   0: x (normalized lon offset)      \ spatial slots
#   1: y (normalized lat offset)      /
#   2: day of week / 7   (Monday = 0) \
#   3: hour of day / 24                | temporal slots
#   4: minute of hour / 60             |
#   5: second of minute / 60           |
#   6: dt to previous point / 60 s    /
FEATURE_DIM = 7
SPATIAL_SLOTS = slice(0, 2)
TEMPORAL_SLOTS = slice(2, 7)
DT_FEATURE_INDEX = 6
DT_DIVISOR_S = 60.0  # fixed interval scale: one minute
_MIN_SCALE = 1e-6
# accepted timestamps are [0, MAX_T): 1970-01-01 through 9999-12-31 UTC, the
# four-digit-year calendar range
MAX_T = 253_402_300_800


class TrajPoint(NamedTuple):
    """One GPS fix: latitude/longitude in degrees, unix time in whole seconds.

    A plain record: its ranges are checked when it joins a :class:`Trajectory`.
    """

    lat: float
    lon: float
    t: int


# per column: its name, whether it takes integers only (else any number),
# its closed range, and that range as an error prints it
_RULES = (
    ("latitude", False, -90.0, 90.0, "[-90.0, 90.0]"),
    ("longitude", False, -180.0, 180.0, "[-180.0, 180.0]"),
    ("timestamp", True, 0, MAX_T - 1, f"[0, {MAX_T})"),
)


def _is_number(v, integer: bool) -> bool:
    """Whether ``v`` is an int (numpy's too) or, unless ``integer``, a float; never a bool."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(v, kinds) and not isinstance(v, bool)


def _numbers(values, integer: bool) -> np.ndarray:
    """``values`` as a fresh int64 (``integer``) or float64 array, in which an
    entry that is not a number of that kind, or that the dtype cannot hold,
    reads as -1 or NaN: outside every range."""
    dtype = np.int64 if integer else np.float64
    if isinstance(values, np.ndarray):
        if values.dtype == dtype:
            return np.array(values)
        values = values.tolist()
    if set(map(type, values)) <= ({int} if integer else {int, float}):  # numbers, all of them
        try:
            return np.array(values, dtype)
        except OverflowError:  # an int past the dtype's range
            pass
    fill = -1 if integer else math.nan
    held = []
    for v in values:
        try:
            held.append(dtype(v) if _is_number(v, integer) else fill)
        except OverflowError:  # an int past the dtype's range
            held.append(fill)
    return np.array(held, dtype)


def _fault(traj_id, first: int, values, inside, rises) -> ValueError:
    """The error of a segment the check rejects, from its latitude, longitude
    and time columns as given (``values``), the masks of their entries in
    range (``inside``) and whether each time follows the one before it
    (``rises``): the first offending fix in latitude, then longitude, then
    time, its index counted from ``first``."""
    for (name, integer, _, _, bounds), col, ok, in_order in zip(
        _RULES, values, inside, (True, True, rises)
    ):
        bad = np.flatnonzero(~(ok & in_order))
        if bad.size:
            break
    i = int(bad[0])
    v = (col.tolist() if isinstance(col, np.ndarray) else col)[i]  # as a list holds it
    at = f"at index {first + i}"
    if not _is_number(v, integer):
        kind = "an integer" if integer else "a number"
        return ValueError(f"trajectory {traj_id!r}: {name} {v!r} {at} is not {kind}")
    if not ok[i]:
        return ValueError(f"trajectory {traj_id!r}: {name} {v} {at} outside {bounds}")
    return ValueError(f"trajectory {traj_id!r}: time not strictly increasing {at}")


def _check_segments(ids, lat, lon, t, lengths, first=None):
    """The trajectory check, over segments of ``lengths`` fixes (each at least
    one) laid end to end in the columns ``lat``, ``lon`` and ``t``.

    Segment k holds fixes ``first[k]`` on (0 on when ``first`` is None) of
    trajectory ``ids[k]``.  A fix passes with a latitude in [-90, 90] and a
    longitude in [-180, 180], both numbers, an integer time in [0, MAX_T), and
    a time later than that of the fix before it in its segment.  Returns the
    columns as read-only float64/float64/int64 arrays and one verdict per
    segment: None if every fix passes, else the ``ValueError`` naming the
    trajectory and its first offending index.
    """
    columns = [_numbers(col, rule[1]) for col, rule in zip((lat, lon, t), _RULES)]
    inside = [(c >= lo) & (c <= hi) for c, (_, _, lo, hi, _) in zip(columns, _RULES)]
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    t_a = columns[2]
    rises = np.empty(len(t_a), bool)
    rises[1:] = t_a[1:] > t_a[:-1]
    rises[starts] = True  # a segment's first fix follows no fix of its own
    passed = np.logical_and.reduceat(inside[0] & inside[1] & inside[2] & rises, starts)
    faults = [None] * len(starts)
    for k, ok in enumerate(passed.tolist()):
        if ok:
            continue
        at = slice(starts[k], starts[k] + lengths[k])
        faults[k] = _fault(
            ids[k],
            0 if first is None else int(first[k]),
            [col[at] for col in (lat, lon, t)],
            [mask[at] for mask in inside],
            rises[at],
        )
    for col in columns:
        col.setflags(write=False)
    return tuple(columns), faults


def _validated(traj_id, lat, lon, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of one trajectory, checked: read-only float64/float64/int64
    copies, or ``ValueError`` naming the first offending index.  Needs at
    least two fixes and the check of :func:`_check_segments`."""
    n = len(t)
    if len(lat) != n or len(lon) != n:
        raise ValueError(f"trajectory {traj_id!r}: lat, lon and t differ in length")
    if n < 2:
        raise ValueError(f"trajectory {traj_id!r} has {n} points, need >= 2")
    columns, (fault,) = _check_segments([traj_id], lat, lon, t, [n])
    if fault is not None:
        raise fault
    return columns


class Trajectory:
    """An identified sequence of at least two fixes with strictly increasing time.

    Built from any sequence of ``(lat, lon, t)`` triples, or from columns with
    :meth:`from_columns`; both go through the same validation.  The columns
    are read-only, and trajectories compare by value.
    """

    __slots__ = ("id", "lat", "lon", "t")

    def __init__(self, id: str, points: Iterable[Sequence]):
        columns = list(zip(*points, strict=True)) or [(), (), ()]
        if len(columns) != 3:
            raise ValueError(f"trajectory {id!r}: points must be (lat, lon, t) triples")
        self.id = id
        self.lat, self.lon, self.t = _validated(id, *columns)

    @classmethod
    def from_columns(cls, id: str, lat, lon, t) -> "Trajectory":
        """A trajectory over copies of the given ``lat``, ``lon`` and integer ``t`` columns."""
        traj = cls.__new__(cls)
        traj.id = id
        traj.lat, traj.lon, traj.t = _validated(id, lat, lon, t)
        return traj

    @property
    def points(self) -> tuple[TrajPoint, ...]:
        """The fixes as ``TrajPoint`` records, built on each access."""
        return tuple(map(TrajPoint, self.lat.tolist(), self.lon.tolist(), self.t.tolist()))

    def head(self, n: int) -> "Trajectory":
        """The first ``n`` fixes (``self`` when there are no more than ``n``),
        as read-only views of this trajectory's columns: a prefix of checked
        fixes needs no second check, only at least two fixes."""
        if n >= len(self):
            return self
        if n < 2:
            raise ValueError(f"trajectory {self.id!r} has {n} points, need >= 2")
        return Trajectory._checked(self.id, self.lat[:n], self.lon[:n], self.t[:n])

    @classmethod
    def _checked(cls, id: str, lat: np.ndarray, lon: np.ndarray, t: np.ndarray) -> "Trajectory":
        """A trajectory over read-only float64/float64/int64 columns (no copy)
        that hold at least two fixes which already passed the check."""
        traj = cls.__new__(cls)
        traj.id, traj.lat, traj.lon, traj.t = id, lat, lon, t
        return traj

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.id == other.id
            and np.array_equal(self.lat, other.lat)
            and np.array_equal(self.lon, other.lon)
            and np.array_equal(self.t, other.t)
        )

    def __repr__(self) -> str:
        return f"Trajectory(id={self.id!r}, {len(self)} points)"


def _typed(kind, value):
    """``value`` read from JSON as the field annotation ``kind``; ``TypeError`` if it is not."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and -sys.float_info.max <= value <= sys.float_info.max:
        return float(value)  # finite: NaN and out-of-range values fail the bounds
    if (kind is int and number and isinstance(value, int)) or (
        kind in (bool, str, type(None)) and isinstance(value, kind)
    ):
        return value
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        for arm in args:
            with contextlib.suppress(TypeError):
                return _typed(arm, value)
    if origin is tuple and isinstance(value, (list, tuple)):
        arms = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(arms) == len(value):
            return tuple(map(_typed, arms, value))
    raise TypeError(f"{value!r} is not {kind}")


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


class JsonConfig:
    """``to_dict``/``from_dict`` for a config dataclass, typed by its field annotations.

    The keys are the dataclass fields.  ``from_dict`` takes an ``int`` as a
    JSON integer, a ``float`` as a finite JSON number (an integer becomes a
    float), ``bool`` and ``str`` as themselves, ``X | None`` as either, and a
    ``tuple[...]`` as a list of the right length and element types; any other
    key or value raises ``ValueError`` naming the class, the field and the
    value.  ``to_dict`` writes tuples as lists.
    """

    def to_dict(self) -> dict:
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, d: dict):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ValueError(f"{name} needs a JSON object, got {d!r}")
        kinds = _field_types(cls)
        values = {}
        for key, value in d.items():
            if key not in kinds:
                raise ValueError(f"{name} has no field {key!r}")
            try:
                values[key] = _typed(kinds[key], value)
            except TypeError:
                kind = kinds[key].__name__ if isinstance(kinds[key], type) else kinds[key]
                raise ValueError(f"{name}.{key} must be {kind}, got {value!r}") from None
        for f in fields(cls):
            if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{name}.{f.name} is missing")
        return cls(**values)


@dataclass(frozen=True)
class NormalizationParams(JsonConfig):
    """Corpus center and per-axis spread used to map degrees to model units."""

    center_lat: float
    center_lon: float
    scale_lat: float
    scale_lon: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError(f"normalization parameters must be finite, got {astuple(self)}")
        if not (self.scale_lat > 0 and self.scale_lon > 0):
            raise ValueError("scales must be positive")

    def approx_equal(self, other: "NormalizationParams", tol: float = 1e-9) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(astuple(self), astuple(other)))


@dataclass
class DeltaSequence:
    """First point plus consecutive (dlat deg, dlon deg, dt s) steps."""

    traj_id: str
    origin: TrajPoint
    deltas: list[tuple[float, float, int]]


@dataclass
class FeatureSequence:
    """Featurized trajectory: per-point vectors plus parallel delta targets.

    ``targets[i]`` is the normalized step from point i to point i+1
    (dlat/scale_lat, dlon/scale_lon, dt/60); the final row is zero because the
    last point has no successor.
    """

    traj_id: str
    features: np.ndarray  # [S, FEATURE_DIM]
    targets: np.ndarray  # [S, 3]

    def __len__(self) -> int:
        return self.features.shape[0]


def compute_center(trajectories: Iterable[Trajectory]) -> NormalizationParams:
    """Mean center and per-axis population std over every point, streamed.

    Scales are floored at 1e-6 degrees so degenerate (constant-axis) corpora
    still normalize.  Raises on an empty corpus.
    """
    # Welford's online moments: one pass, constant memory, and no
    # sum-of-squares cancellation (keeps normalization translation-covariant
    # to well under 1e-9). The sequential order fixes every bit of the result,
    # so it stays a Python loop rather than a numpy reduction.
    n = 0
    mean_lat = mean_lon = m2_lat = m2_lon = 0.0
    for traj in trajectories:
        for lat, lon in zip(traj.lat.tolist(), traj.lon.tolist()):
            n += 1
            d_lat = lat - mean_lat
            mean_lat += d_lat / n
            m2_lat += d_lat * (lat - mean_lat)
            d_lon = lon - mean_lon
            mean_lon += d_lon / n
            m2_lon += d_lon * (lon - mean_lon)
    if n == 0:
        raise ValueError("cannot fit normalization on an empty corpus")
    var_lat = m2_lat / n
    var_lon = m2_lon / n
    return NormalizationParams(
        center_lat=mean_lat,
        center_lon=mean_lon,
        scale_lat=max(float(np.sqrt(var_lat)), _MIN_SCALE),
        scale_lon=max(float(np.sqrt(var_lon)), _MIN_SCALE),
    )


def normalize(p: TrajPoint, params: NormalizationParams) -> tuple[float, float]:
    """Map a point to normalized (x, y) offsets from the corpus center."""
    x = (p.lon - params.center_lon) / params.scale_lon
    y = (p.lat - params.center_lat) / params.scale_lat
    return x, y


def denormalize(x: float, y: float, params: NormalizationParams) -> tuple[float, float]:
    """Inverse of ``normalize``; returns (lat, lon) in degrees."""
    lat = params.center_lat + y * params.scale_lat
    lon = params.center_lon + x * params.scale_lon
    return lat, lon


# Calendar fields of a unix time t: field = (t + shift) // unit % period.
# The 3-day shift makes Monday 0 (1970-01-01 was a Thursday), and each
# feature is its field divided by its period (dow/7, hod/24, moh/60, soh/60).
_CAL_SHIFT = np.array([3 * 86400, 0, 0, 0])
_CAL_UNIT = np.array([86400, 3600, 60, 1])
_CAL_PERIOD = np.array([7, 24, 60, 60])


def _calendar(t: np.ndarray) -> np.ndarray:
    """[S, 4] UTC (dow, hod, moh, soh) of [S] int64 timestamps, Monday = 0."""
    return (t[:, None] + _CAL_SHIFT) // _CAL_UNIT % _CAL_PERIOD


def decompose_time(t: int) -> tuple[int, int, int, int]:
    """Split a unix timestamp in [0, MAX_T) into UTC (dow, hod, moh, soh), Monday = 0."""
    if not 0 <= t < MAX_T:
        raise ValueError(f"timestamp {t} outside [0, {MAX_T})")
    return tuple(_calendar(np.array([int(t)]))[0].tolist())


def delta_encode(traj: Trajectory) -> DeltaSequence:
    """Reduce a trajectory to its origin plus per-step (dlat, dlon, dt)."""
    deltas = list(
        zip(np.diff(traj.lat).tolist(), np.diff(traj.lon).tolist(), np.diff(traj.t).tolist())
    )
    origin = TrajPoint(float(traj.lat[0]), float(traj.lon[0]), int(traj.t[0]))
    return DeltaSequence(traj_id=traj.id, origin=origin, deltas=deltas)


def delta_decode(ds: DeltaSequence) -> Trajectory:
    """Rebuild the trajectory from origin and deltas (inverse of delta_encode)."""
    lat, lon, t = zip(ds.origin, *ds.deltas)
    return Trajectory.from_columns(ds.traj_id, np.cumsum(lat), np.cumsum(lon), np.cumsum(t))


def featurize_columns(
    lat: np.ndarray,
    lon: np.ndarray,
    t: np.ndarray,
    lengths: Sequence[int],
    params: NormalizationParams,
) -> tuple[np.ndarray, np.ndarray]:
    """[N, 7] features and [N, 3] targets of trajectories laid end to end.

    ``lat``, ``lon`` and ``t`` hold consecutive segments of ``lengths`` fixes
    each (every length at least 1).  The rows of a segment are the rows
    ``featurize`` gives that segment alone, bit for bit: the columns are
    filled over all rows at once, then each segment's first dt feature and
    last target row, which would reach across a segment boundary, are zeroed.
    """
    lengths = np.asarray(lengths)
    n = len(t)
    if len(lat) != n or len(lon) != n or lengths.sum() != n or (lengths < 1).any():
        raise ValueError(f"segments of lengths {lengths.tolist()} do not tile "
                         f"columns of {len(lat)}, {len(lon)} and {n} rows")
    ends = np.cumsum(lengths) - 1
    # targets[i] is the normalized step from fix i to fix i + 1
    targets = np.empty((n, 3), dtype=np.float64)
    targets[:-1, 0] = (lat[1:] - lat[:-1]) / params.scale_lat
    targets[:-1, 1] = (lon[1:] - lon[:-1]) / params.scale_lon
    targets[:-1, 2] = (t[1:] - t[:-1]) / DT_DIVISOR_S
    # feature columns 0-5 are each a function of their own fix only
    feats = np.empty((n, FEATURE_DIM), dtype=np.float64)
    feats[:, 0] = (lon - params.center_lon) / params.scale_lon
    feats[:, 1] = (lat - params.center_lat) / params.scale_lat
    feats[:, 2:6] = _calendar(t) / _CAL_PERIOD
    feats[1:, DT_FEATURE_INDEX] = targets[:-1, 2]
    feats[ends + 1 - lengths, DT_FEATURE_INDEX] = 0.0
    targets[ends] = 0.0
    return feats, targets


def featurize(traj: Trajectory, params: NormalizationParams) -> FeatureSequence:
    """Build the [S, 7] model input matrix and [S, 3] normalized delta targets.

    Feature columns: x, y, dow/7, hod/24, moh/60, soh/60, dt_prev/60 (0 for
    the first point).  Targets are the *next* step per position, normalized
    the same way positions are (spatial deltas by the axis scales, dt by 60 s).
    Every feature row depends only on its fix and the one before it.
    """
    feats, targets = featurize_columns(traj.lat, traj.lon, traj.t, (len(traj),), params)
    return FeatureSequence(traj_id=traj.id, features=feats, targets=targets)
