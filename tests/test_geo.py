"""Encoding tests: calendar decomposition against an independent modular-
arithmetic oracle, round-trips, and normalization statistics."""

import numpy as np
import pytest

from tinytraj import geo

RNG = np.random.default_rng(11)


def random_trajectory(rng, traj_id="t", n=None, lat0=50.0, lon0=4.0):
    n = n or int(rng.integers(2, 40))
    lats = lat0 + np.cumsum(rng.normal(0, 0.001, n))
    lons = lon0 + np.cumsum(rng.normal(0, 0.001, n))
    ts = np.cumsum(rng.integers(1, 120, n)) + int(rng.integers(0, 2**30))
    pts = [geo.TrajPoint(float(a), float(o), int(t)) for a, o, t in zip(lats, lons, ts)]
    return geo.Trajectory(id=traj_id, points=pts)


# ---------------------------------------------------------------------------
# types and validation
# ---------------------------------------------------------------------------


def test_trajpoint_validates_ranges():
    # a TrajPoint is a plain record: its ranges are checked when it joins a trajectory
    ok = geo.TrajPoint(0.0, 0.0, 10)
    for bad in (
        geo.TrajPoint(91.0, 0.0, 0),
        geo.TrajPoint(0.0, -181.0, 0),
        geo.TrajPoint(0.0, 0.0, -1),
        geo.TrajPoint(0.0, 0.0, 1.5),
        geo.TrajPoint(True, 0.0, 0),  # coordinates are numbers, never bools
        geo.TrajPoint(0.0, "13.5", 0),
    ):
        with pytest.raises(ValueError):
            geo.Trajectory(id="bad", points=[bad, ok])


def test_trajectory_needs_two_points_and_monotone_time():
    p = geo.TrajPoint(50.0, 4.0, 100)
    with pytest.raises(ValueError):
        geo.Trajectory(id="short", points=[p])
    q = geo.TrajPoint(50.0, 4.0, 100)
    with pytest.raises(ValueError) as exc:
        geo.Trajectory(id="flat", points=[p, q])
    assert "index 1" in str(exc.value)


# ---------------------------------------------------------------------------
# calendar decomposition
# ---------------------------------------------------------------------------


def oracle_decompose(t):
    # independent oracle: pure modular arithmetic from the epoch
    # (1970-01-01 was a Thursday; Monday = 0 makes that day 3)
    days = t // 86400
    rem = t % 86400
    return ((3 + days) % 7, rem // 3600, (rem % 3600) // 60, rem % 60)


def test_decompose_time_epoch_is_thursday_midnight():
    assert geo.decompose_time(0) == (3, 0, 0, 0)


def test_decompose_time_day_rollover_and_components():
    assert geo.decompose_time(86400) == (4, 0, 0, 0)  # Friday
    assert geo.decompose_time(3661) == (3, 1, 1, 1)


def test_decompose_time_matches_modular_oracle():
    ts = RNG.integers(0, 2**31 - 1, size=1000)
    for t in ts:
        assert geo.decompose_time(int(t)) == oracle_decompose(int(t))


def test_decompose_time_rejects_negative():
    with pytest.raises(ValueError):
        geo.decompose_time(-1)


def test_time_range_ends_with_year_9999():
    # 9999-12-31T23:59:59Z, a Friday, is the last second with calendar features
    assert geo.decompose_time(geo.MAX_T - 1) == (4, 23, 59, 59)
    for t in (geo.MAX_T, 10**12, 2**70):
        with pytest.raises(ValueError):
            geo.decompose_time(t)
        with pytest.raises(ValueError, match="outside"):
            geo.Trajectory(id="late", points=[(0.0, 0.0, 1), (0.0, 0.0, t)])
    geo.Trajectory(id="edge", points=[(0.0, 0.0, 0), (0.0, 0.0, geo.MAX_T - 1)])


def test_from_columns_shares_validation():
    traj = geo.Trajectory.from_columns("c", [50.0, 50.1], [4.0, 4.1], np.array([5, 9]))
    assert traj == geo.Trajectory(id="c", points=[(50.0, 4.0, 5), (50.1, 4.1, 9)])
    assert traj.points == (geo.TrajPoint(50.0, 4.0, 5), geo.TrajPoint(50.1, 4.1, 9))
    assert traj.t.dtype == np.int64 and not traj.t.flags.writeable
    for lat, lon, t in (
        ([50.0], [4.0], [5]),  # one point
        ([91.0, 50.0], [4.0, 4.0], [5, 9]),
        ([50.0, 50.0], [4.0, np.nan], [5, 9]),
        ([50.0, 50.0], [4.0, 4.0], [5.0, 9.0]),  # float timestamps
        ([50.0, 50.0], np.array([4.0, None], dtype=object), [5, 9]),
        ([50.0, 50.0], [4.0, 4.0], [9, 9]),
        ([50.0, 50.0, 50.0], [4.0, 4.0], [5, 9, 11]),  # ragged columns
    ):
        with pytest.raises(ValueError):
            geo.Trajectory.from_columns("bad", lat, lon, t)


def test_check_names_the_first_fault_latitude_then_longitude_then_time():
    # a time fault at index 0, a longitude fault at 1 and a latitude fault at 2
    points = [(0.0, 0.0, -5), (0.0, 200.0, 5), (95.0, 0.0, 1)]
    with pytest.raises(ValueError, match=r"^trajectory 'p': latitude 95.0 at index 2 outside"):
        geo.Trajectory(id="p", points=points)
    points[2] = (0.0, 0.0, 1)
    with pytest.raises(ValueError, match=r"^trajectory 'p': longitude 200.0 at index 1 outside"):
        geo.Trajectory(id="p", points=points)
    points[1] = (0.0, 0.0, 5)
    with pytest.raises(ValueError, match=r"^trajectory 'p': timestamp -5 at index 0 outside"):
        geo.Trajectory(id="p", points=points)
    points[0] = (0.0, 0.0, 0)
    with pytest.raises(ValueError, match=r"time not strictly increasing at index 2"):
        geo.Trajectory(id="p", points=points)


def test_head_is_a_read_only_prefix_checked_once():
    traj = geo.Trajectory(id="h", points=[(50.0 + i / 8, 4.0 - i / 16, 10 * i) for i in range(34)])
    for n in (2, 17, 32, 33):
        head = traj.head(n)
        assert head == geo.Trajectory.from_columns("h", traj.lat[:n], traj.lon[:n], traj.t[:n])
        assert len(head) == n and head.t.dtype == np.int64
        for column in (head.lat, head.lon, head.t):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
    assert traj.head(34) is traj and traj.head(99) is traj
    for n in (1, 0):
        with pytest.raises(ValueError, match="need >= 2"):
            traj.head(n)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_compute_center_uniform_square():
    # 1000 uniform points in [0,1]^2: center ~ (0.5, 0.5), std ~ 1/sqrt(12)
    rng = np.random.default_rng(7)
    lats = rng.uniform(0, 1, 1000)
    lons = rng.uniform(0, 1, 1000)
    ts = np.arange(1, 1001)
    trajs = [
        geo.Trajectory(
            id=str(i),
            points=[
                geo.TrajPoint(float(lats[2 * i]), float(lons[2 * i]), int(ts[2 * i])),
                geo.TrajPoint(float(lats[2 * i + 1]), float(lons[2 * i + 1]), int(ts[2 * i + 1])),
            ],
        )
        for i in range(500)
    ]
    params = geo.compute_center(trajs)
    assert abs(params.center_lat - 0.5) < 0.03
    assert abs(params.center_lon - 0.5) < 0.03
    expected_std = 1.0 / np.sqrt(12.0)
    assert abs(params.scale_lat - expected_std) < 0.03
    assert abs(params.scale_lon - expected_std) < 0.03


def test_compute_center_empty_corpus_raises():
    with pytest.raises(ValueError):
        geo.compute_center([])


def test_constant_axis_floors_scale():
    pts = [geo.TrajPoint(50.0, 4.0, 1), geo.TrajPoint(50.0, 4.0, 2)]
    params = geo.compute_center([geo.Trajectory(id="c", points=pts)])
    assert params.scale_lat == 1e-6
    assert params.scale_lon == 1e-6


@pytest.mark.parametrize("field", ["center_lat", "center_lon", "scale_lat", "scale_lon"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_normalization_params_must_be_finite(field, bad):
    good = {"center_lat": 52.5, "center_lon": 13.4, "scale_lat": 0.1, "scale_lon": 0.2}
    with pytest.raises(ValueError, match="finite"):
        geo.NormalizationParams(**{**good, field: bad})
    with pytest.raises(ValueError, match=field):
        geo.NormalizationParams.from_dict({**good, field: bad})


def test_normalize_denormalize_round_trip():
    rng = np.random.default_rng(3)
    trajs = [random_trajectory(rng, str(i)) for i in range(20)]
    params = geo.compute_center(trajs)
    for traj in trajs:
        for p in traj.points:
            x, y = geo.normalize(p, params)
            lat, lon = geo.denormalize(x, y, params)
            assert abs(lat - p.lat) < 1e-9
            assert abs(lon - p.lon) < 1e-9


def test_normalization_is_translation_covariant():
    # shifting every coordinate and re-fitting leaves normalized features unchanged
    rng = np.random.default_rng(5)
    trajs = [random_trajectory(rng, str(i)) for i in range(10)]
    shift_lat, shift_lon = 3.25, -7.5
    shifted = [
        geo.Trajectory(
            id=t.id,
            points=[geo.TrajPoint(p.lat + shift_lat, p.lon + shift_lon, p.t) for p in t.points],
        )
        for t in trajs
    ]
    params = geo.compute_center(trajs)
    params_shifted = geo.compute_center(shifted)
    for t, ts in zip(trajs, shifted):
        a = geo.featurize(t, params).features
        b = geo.featurize(ts, params_shifted).features
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# delta encoding
# ---------------------------------------------------------------------------


def test_delta_round_trip_exact():
    rng = np.random.default_rng(13)
    for i in range(50):
        traj = random_trajectory(rng, str(i))
        back = geo.delta_decode(geo.delta_encode(traj))
        assert back.id == traj.id
        for p, q in zip(traj.points, back.points):
            assert q.t == p.t
            assert abs(q.lat - p.lat) < 1e-12
            assert abs(q.lon - p.lon) < 1e-12


def test_delta_dt_always_positive():
    rng = np.random.default_rng(17)
    ds = geo.delta_encode(random_trajectory(rng))
    assert all(dt > 0 for _, _, dt in ds.deltas)


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_featurize_layout_and_ranges():
    rng = np.random.default_rng(23)
    traj = random_trajectory(rng, "f", n=12)
    params = geo.compute_center([traj])
    fs = geo.featurize(traj, params)
    assert fs.features.shape == (12, geo.FEATURE_DIM)
    assert fs.targets.shape == (12, 3)
    # calendar columns scaled to [0, 1)
    cal = fs.features[:, 2:6]
    assert (cal >= 0).all() and (cal < 1).all()
    # first point has no predecessor: dt feature is 0
    assert fs.features[0, geo.DT_FEATURE_INDEX] == 0.0
    # remaining dt features are positive (strictly increasing time)
    assert (fs.features[1:, geo.DT_FEATURE_INDEX] > 0).all()
    # last target row is zero: no successor to predict
    np.testing.assert_array_equal(fs.targets[-1], np.zeros(3))


def test_featurize_targets_match_deltas():
    rng = np.random.default_rng(29)
    traj = random_trajectory(rng, "g", n=8)
    params = geo.compute_center([traj])
    fs = geo.featurize(traj, params)
    for i, (dlat, dlon, dt) in enumerate(geo.delta_encode(traj).deltas):
        np.testing.assert_allclose(
            fs.targets[i],
            [dlat / params.scale_lat, dlon / params.scale_lon, dt / geo.DT_DIVISOR_S],
            rtol=0,
            atol=1e-12,
        )
    # dt feature at i+1 equals the dt target at i (same step, same 60 s scale)
    np.testing.assert_allclose(
        fs.features[1:, geo.DT_FEATURE_INDEX], fs.targets[:-1, 2], rtol=0, atol=0
    )



def _ragged(lengths, seed=0):
    rng = np.random.default_rng(seed)
    trajs = []
    for i, n in enumerate(lengths):
        t = np.cumsum(rng.integers(1, 90, n)) + int(rng.integers(0, geo.MAX_T // 2))
        trajs.append(geo.Trajectory.from_columns(
            f"r{i}", rng.uniform(-89, 89, n), rng.uniform(-179, 179, n), t
        ))
    return trajs


@pytest.mark.parametrize(
    "lengths", [tuple(range(2, 17)), (2,), (16,), (5, 2, 2, 7), (2, 16, 3)],
    ids=["2-to-16", "one-2-point", "one-16-point", "2-point-inside", "mixed"],
)
def test_featurize_columns_is_per_trajectory_featurize_bit_for_bit(lengths):
    trajs = _ragged(lengths)
    params = geo.compute_center(trajs)
    feats, targets = geo.featurize_columns(
        np.concatenate([t.lat for t in trajs]),
        np.concatenate([t.lon for t in trajs]),
        np.concatenate([t.t for t in trajs]),
        lengths,
        params,
    )
    one_by_one = [geo.featurize(t, params) for t in trajs]
    assert feats.tobytes() == np.concatenate([fs.features for fs in one_by_one]).tobytes()
    assert targets.tobytes() == np.concatenate([fs.targets for fs in one_by_one]).tobytes()


@pytest.mark.parametrize("lengths, rows", [((3, 2), 6), ((2, 5), 6), ((6, 0), 6), ((), 6), ((6,), 5)])
def test_featurize_columns_needs_lengths_that_tile_the_columns(lengths, rows):
    (traj,) = _ragged((6,))
    params = geo.compute_center([traj])
    with pytest.raises(ValueError, match="do not tile"):
        geo.featurize_columns(traj.lat, traj.lon, traj.t[:rows], lengths, params)
