"""Data pipeline tests: generator determinism and noise statistics, JSONL
streaming with malformed-line recovery, padding/batching, and hash splits."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from tinytraj import data, geo
from tinytraj.data import (
    Batch,
    BatchLoader,
    MalformedLineWarning,
    SyntheticConfig,
    assign_split,
    batchify,
    generate_synthetic,
    split,
    stream_jsonl,
    write_jsonl,
)
from tinytraj.geo import TrajPoint, Trajectory


def make_params(trajs):
    return geo.compute_center(trajs)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_config_validation():
    for bad in (
        dict(n_traj=0),
        dict(points_per_traj=1),
        dict(n_waypoints=1),
        dict(speed_min=0.0),
        dict(speed_min=2e-4, speed_max=1e-4),
        dict(noise_sigma=-0.1),
        dict(dt_mean_s=0.0),
        dict(bbox=(53.0, 13.0, 52.0, 14.0)),
    ):
        with pytest.raises(ValueError):
            SyntheticConfig(**bad)


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    cfg = SyntheticConfig(n_traj=50, points_per_traj=16, noise_sigma=1e-4, seed=7)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(generate_synthetic(cfg), a)
    write_jsonl(generate_synthetic(cfg), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size > 0


def test_different_seed_changes_corpus(tmp_path):
    a = list(generate_synthetic(SyntheticConfig(n_traj=3, seed=1)))
    b = list(generate_synthetic(SyntheticConfig(n_traj=3, seed=2)))
    assert a[0].points[0] != b[0].points[0]


def test_zero_noise_two_waypoints_is_collinear():
    cfg = SyntheticConfig(
        n_traj=20, points_per_traj=24, n_waypoints=2, noise_sigma=0.0, seed=3
    )
    for traj in generate_synthetic(cfg):
        lats = np.array([p.lat for p in traj.points])
        lons = np.array([p.lon for p in traj.points])
        d_lat, d_lon = lats - lats[0], lons - lons[0]
        seg = np.hypot(lats[-1] - lats[0], lons[-1] - lons[0])
        assert seg > 0
        # perpendicular distance of every point from the first-to-last chord
        cross = d_lat * (lons[-1] - lons[0]) - d_lon * (lats[-1] - lats[0])
        assert np.abs(cross / seg).max() < 1e-9


def test_equal_arc_length_steps_within_speed_range():
    cfg = SyntheticConfig(
        n_traj=10, points_per_traj=32, n_waypoints=5, noise_sigma=0.0, seed=4
    )
    for traj in generate_synthetic(cfg):
        lats = np.array([p.lat for p in traj.points])
        lons = np.array([p.lon for p in traj.points])
        steps = np.hypot(np.diff(lats), np.diff(lons))
        # equal arc-length sampling: spacing equals the per-trajectory speed
        # except where a step cuts across a waypoint corner (shorter chord)
        spacing = steps.max()
        assert cfg.speed_min - 1e-9 <= spacing <= cfg.speed_max + 1e-9
        n_short = int((spacing - steps > 1e-12).sum())
        assert n_short <= cfg.n_waypoints - 2
        assert steps.min() > 0


def test_empirical_noise_std_matches_sigma():
    sigma = 5e-4
    base = dict(n_traj=313, points_per_traj=32, seed=9)  # 10016 points
    clean = list(generate_synthetic(SyntheticConfig(noise_sigma=0.0, **base)))
    noisy = list(generate_synthetic(SyntheticConfig(noise_sigma=sigma, **base)))
    residuals = []
    for c, n in zip(clean, noisy):
        for pc, pn in zip(c.points, n.points):
            residuals += [pn.lat - pc.lat, pn.lon - pc.lon]
    est = float(np.std(residuals))
    assert abs(est - sigma) / sigma < 0.05


def test_timestamps_strictly_increasing_with_floor():
    cfg = SyntheticConfig(n_traj=5, points_per_traj=50, dt_mean_s=1.0, dt_std_s=10.0, seed=5)
    for traj in generate_synthetic(cfg):
        dts = np.diff([p.t for p in traj.points])
        assert (dts >= 1).all()  # heavy jitter still floored at one second


# ---------------------------------------------------------------------------
# JSONL streaming
# ---------------------------------------------------------------------------


def test_jsonl_round_trip_is_exact(tmp_path):
    cfg = SyntheticConfig(n_traj=10, points_per_traj=8, noise_sigma=1e-4, seed=6)
    original = list(generate_synthetic(cfg))
    path = tmp_path / "t.jsonl"
    assert write_jsonl(original, path) == 10
    loaded = list(stream_jsonl(path))
    assert loaded == original  # float repr round-trips exactly


def test_empty_file_yields_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    reader = stream_jsonl(path)
    assert list(reader) == []
    assert reader.skipped == 0


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        stream_jsonl(tmp_path / "nope.jsonl")


def test_malformed_lines_skipped_with_warning(tmp_path):
    good = data.trajectory_to_record(
        Trajectory(
            id="g", points=[TrajPoint(1.0, 2.0, 0), TrajPoint(1.1, 2.1, 10)]
        )
    )
    lines = [
        json.dumps({**good, "id": "a"}),
        "{not json",
        json.dumps({**good, "id": "b"}),
        json.dumps({"id": "c"}),  # missing points
        json.dumps({"id": "d", "points": [[1, 2, 10], [1, 2, 5]]}),  # t not increasing
        json.dumps({**good, "id": "e"}),
    ]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    reader = stream_jsonl(path)
    with pytest.warns(MalformedLineWarning) as record:
        ids = [t.id for t in reader]
    assert ids == ["a", "b", "e"]
    assert reader.skipped == 3
    messages = [str(w.message) for w in record]
    assert len(messages) == 3
    assert any(":2:" in m for m in messages)  # line numbers reported
    assert any(":4:" in m for m in messages)
    assert any(":5:" in m for m in messages)


def test_reader_is_reiterable(tmp_path):
    cfg = SyntheticConfig(n_traj=4, points_per_traj=4, seed=8)
    path = tmp_path / "t.jsonl"
    write_jsonl(generate_synthetic(cfg), path)
    reader = stream_jsonl(path)
    assert list(reader) == list(reader)


def test_streaming_memory_is_corpus_size_independent(tmp_path):
    def peak_bytes(n_lines):
        path = tmp_path / f"m{n_lines}.jsonl"
        cfg = SyntheticConfig(n_traj=n_lines, points_per_traj=8, seed=11)
        write_jsonl(generate_synthetic(cfg), path)
        count = 0
        tracemalloc.start()
        for _ in stream_jsonl(path):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == n_lines
        return peak

    small, large = peak_bytes(500), peak_bytes(5000)
    assert large < 3 * small + 1_000_000


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _traj(traj_id, n, lat0=10.0):
    pts = [TrajPoint(lat0 + 0.01 * i, 20.0 + 0.01 * i, 60 * i) for i in range(n)]
    return Trajectory(id=traj_id, points=pts)


def test_batchify_pads_mixed_lengths():
    trajs = [_traj("a", 5), _traj("b", 3)]
    params = make_params(trajs)
    (batch,) = list(batchify(trajs, 2, 5, params))
    assert batch.features.shape == (2, 5, geo.FEATURE_DIM)
    assert batch.targets.shape == (2, 5, 3)
    assert batch.pad_mask.tolist() == [[True] * 5, [True] * 3 + [False] * 2]
    assert batch.lengths == (5, 3)
    assert batch.ids == ("a", "b")
    assert np.all(batch.features[1, 3:] == 0.0)
    assert np.all(batch.targets[1, 3:] == 0.0)


def test_batchify_equal_lengths_no_padding():
    trajs = [_traj(str(i), 4) for i in range(6)]
    params = make_params(trajs)
    batches = list(batchify(trajs, 3, 4, params))
    assert len(batches) == 2
    for b in batches:
        assert b.pad_mask.all()


def test_batchify_emits_partial_final_batch():
    trajs = [_traj(str(i), 4) for i in range(7)]
    params = make_params(trajs)
    batches = list(batchify(trajs, 3, 4, params))
    assert [b.batch_size for b in batches] == [3, 3, 1]


def test_batch_targets_match_delta_encoding_exactly():
    cfg = SyntheticConfig(n_traj=11, points_per_traj=9, noise_sigma=2e-4, seed=12)
    trajs = list(generate_synthetic(cfg))
    params = make_params(trajs)
    s_max = 6  # force truncation
    rows = [
        (b, r) for b in batchify(trajs, 4, s_max, params) for r in range(b.batch_size)
    ]
    assert len(rows) == len(trajs)
    for traj, (batch, row) in zip(trajs, rows):
        kept = Trajectory(id=traj.id, points=list(traj.points[:s_max]))
        ds = geo.delta_encode(kept)
        for i, (dlat, dlon, dt) in enumerate(ds.deltas):
            expected = [
                dlat / params.scale_lat,
                dlon / params.scale_lon,
                dt / geo.DT_DIVISOR_S,
            ]
            assert batch.targets[row, i].tolist() == expected  # exact
        assert np.all(batch.targets[row, len(kept) - 1 :] == 0.0)


def test_batch_invariants_enforced():
    feats = np.zeros((1, 4, geo.FEATURE_DIM))
    targs = np.zeros((1, 4, 3))
    hole = np.array([[True, False, True, True]])
    with pytest.raises(ValueError):
        Batch(feats, targs, hole, ids=("x",), lengths=(3,))
    one_valid = np.array([[True, False, False, False]])
    with pytest.raises(ValueError):
        Batch(feats, targs, one_valid, ids=("x",), lengths=(1,))


def test_batchify_validates_arguments():
    params = make_params([_traj("a", 3)])
    with pytest.raises(ValueError):
        batchify([], 0, 4, params)
    with pytest.raises(ValueError):
        batchify([], 2, 1, params)


def test_prefetch_preserves_order_and_content():
    trajs = [_traj(str(i), 5) for i in range(10)]
    params = make_params(trajs)
    plain = list(batchify(trajs, 3, 5, params))
    pre = list(batchify(trajs, 3, 5, params, prefetch=True))
    assert len(plain) == len(pre)
    for a, b in zip(plain, pre):
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert a.ids == b.ids


def test_prefetch_worker_exits_after_abandoned_iteration():
    trajs = [_traj(str(i), 5) for i in range(50)]
    params = make_params(trajs)
    it = batchify(trajs, 1, 5, params, prefetch=True)
    assert next(it).ids == ("0",)
    worker = it._thread
    del it  # stop early: the queue stays full
    gc.collect()
    worker.join(timeout=5.0)
    assert not worker.is_alive()


def test_prefetch_propagates_worker_errors():
    params = make_params([_traj("a", 3)])

    def bad_source():
        yield _traj("ok", 3)
        raise RuntimeError("upstream failure")

    it = batchify(bad_source(), 1, 4, params, prefetch=True)
    first = next(it)
    assert first.ids == ("ok",)
    with pytest.raises(RuntimeError, match="upstream failure"):
        next(it)


def test_batch_loader_is_reiterable_even_from_generator():
    cfg = SyntheticConfig(n_traj=6, points_per_traj=5, seed=13)
    params = make_params(list(generate_synthetic(cfg)))
    loader = BatchLoader(generate_synthetic(cfg), 4, 5, params)
    first = [b.ids for b in loader]
    second = [b.ids for b in loader]
    assert first == second and len(first) == 2


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_is_deterministic_disjoint_exhaustive():
    trajs = [_traj(f"id{i}", 3) for i in range(200)]
    train, val = split(trajs, 0.3, seed=1)
    train_ids = {t.id for t in train}
    val_ids = {t.id for t in val}
    assert train_ids | val_ids == {t.id for t in trajs}
    assert train_ids & val_ids == set()
    train2, val2 = split(trajs, 0.3, seed=1)
    assert {t.id for t in train2} == train_ids
    assert {t.id for t in val2} == val_ids


def test_split_fraction_binomial():
    n_val = sum(
        assign_split(f"traj-{i}", 0.5, seed=42) == "val" for i in range(1000)
    )
    assert abs(n_val - 500) <= 50  # ~3.2 sigma for Binomial(1000, 0.5)


def test_split_changes_with_seed():
    ids = [f"x{i}" for i in range(100)]
    a = [assign_split(i, 0.5, seed=1) for i in ids]
    b = [assign_split(i, 0.5, seed=2) for i in ids]
    assert a != b


def test_split_validates_fraction():
    with pytest.raises(ValueError):
        split([], 0.0, seed=0)
    with pytest.raises(ValueError):
        split([], 1.0, seed=0)


def test_split_buffers_one_shot_iterators():
    gen = generate_synthetic(SyntheticConfig(n_traj=20, points_per_traj=4, seed=14))
    train, val = split(gen, 0.4, seed=3)
    n_train, n_val = len(list(train)), len(list(val))
    assert n_train + n_val == 20
    assert len(list(train)) == n_train  # views stay re-iterable
