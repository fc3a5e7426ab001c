"""Property test of the JSONL boundary: whatever JSON value a line holds, the
reader either yields a trajectory that meets every invariant or skips the line
with a warning. It never raises."""

import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tinytraj import data, geo

# plain and escaped ASCII, non-ASCII and astral characters
ALPHABET = "aZ0 \\\"\n\u00e9\u4e2d\U0001f600"

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(ALPHABET, max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(ALPHABET, max_size=4), children, max_size=4),
    max_leaves=12,
)
coords = st.floats(-200.0, 200.0) | st.integers(-200, 200) | scalars
times = (
    st.integers(-2, 8)
    | st.integers(geo.MAX_T - 2, geo.MAX_T + 1)
    | st.integers(-(2**80), 2**80)
    | scalars
)
near_points = st.lists(
    st.tuples(coords, coords, times).map(list) | json_values, max_size=5
)
# well-formed trajectories, so that the accepting branch is exercised too
valid_points = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-90.0, 90.0), min_size=n, max_size=n),
        st.lists(st.floats(-180.0, 180.0), min_size=n, max_size=n),
        st.lists(st.integers(0, geo.MAX_T - 1), min_size=n, max_size=n, unique=True),
    ).map(lambda c: [list(p) for p in zip(c[0], c[1], sorted(c[2]))])
)
records = st.fixed_dictionaries(
    {"id": st.text(ALPHABET, max_size=4) | json_values, "points": valid_points | near_points | json_values}
)
lines = records | json_values


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(lines, min_size=1, max_size=4))
def test_reader_yields_valid_trajectories_or_skips(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_text("".join(json.dumps(v) + "\n" for v in values), encoding="utf-8")
        reader = data.stream_jsonl(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trajs = list(reader)

    assert all(issubclass(w.category, data.MalformedLineWarning) for w in caught)
    skipped = {int(re.search(r"fuzz\.jsonl:(\d+):", str(w.message)).group(1)) for w in caught}
    assert reader.skipped == len(caught) == len(skipped)
    kept = [v for lineno, v in enumerate(values, start=1) if lineno not in skipped]
    assert len(trajs) == len(kept)

    for traj, rec in zip(trajs, kept):
        assert traj.id == rec["id"]
        assert len(traj) >= 2
        assert traj.lat.dtype == np.float64 and traj.lon.dtype == np.float64
        assert ((traj.lat >= -90.0) & (traj.lat <= 90.0)).all()
        assert ((traj.lon >= -180.0) & (traj.lon <= 180.0)).all()
        assert all(_is_json_int(p[2]) for p in rec["points"])
        assert traj.t.dtype == np.int64
        assert traj.t.tolist() == [p[2] for p in rec["points"]]
        assert traj.t[0] >= 0 and traj.t[-1] < geo.MAX_T
        assert (np.diff(traj.t) > 0).all()
