"""Evaluation tests: closed-form haversine values, exact oracle-zero scoring
in all modes, batch-size invariance, seeded infill coverage, and rollout
mechanics (flooring, budget, trained-vs-untrained ordering)."""

import math

import numpy as np
import pytest

from tinytraj import evaluation as ev, geo, masking, model as tm, training as tr
from tinytraj.data import BatchLoader, SyntheticConfig, generate_synthetic
from tinytraj.evaluation import (
    CSV_COLUMNS,
    EARTH_RADIUS_M,
    MetricsReport,
    NormalizationMismatchError,
    evaluate,
    haversine,
    report_to_csv,
    rollout,
)
from tinytraj.geo import NormalizationParams, TrajPoint, Trajectory

TINY = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=32)


def make_corpus(n_traj=10, points=12, noise=0.0, seed=20):
    cfg = SyntheticConfig(
        n_traj=n_traj,
        points_per_traj=points,
        n_waypoints=2,
        noise_sigma=noise,
        seed=seed,
    )
    trajs = list(generate_synthetic(cfg))
    return trajs, geo.compute_center(trajs)


def oracle_for(trajs, norm):
    targets = {t.id: geo.featurize(t, norm).targets for t in trajs}

    def predict(features, traj_id):
        return targets[traj_id][: features.shape[0]]

    return predict


# ---------------------------------------------------------------------------
# haversine
# ---------------------------------------------------------------------------


def test_haversine_identical_points_is_exactly_zero():
    assert haversine((52.52, 13.405), (52.52, 13.405)) == 0.0
    p = TrajPoint(-33.9, 151.2, 0)
    assert haversine(p, p) == 0.0


def test_haversine_one_degree_longitude_at_equator():
    expected = EARTH_RADIUS_M * math.pi / 180.0
    d = haversine((0.0, 0.0), (0.0, 1.0))
    assert abs(d - 111_195.0) < 1.0
    assert abs(d - expected) < 1e-6


def test_haversine_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = (float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        q = (float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        assert abs(haversine(p, q) - haversine(q, p)) < 1e-9


def test_haversine_quarter_circumference():
    d = haversine((0.0, 0.0), (0.0, 90.0))
    assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# report type
# ---------------------------------------------------------------------------


def test_report_validation():
    with pytest.raises(ValueError):
        MetricsReport(-1.0, 0.0, 0.0, 1, 1, "next_step")
    with pytest.raises(ValueError):
        MetricsReport(0.0, 0.0, 0.0, 0, 1, "next_step")


def test_report_csv_shape():
    rep = MetricsReport(1.5, 2.5, 0.25, 10, 2, "rollout")
    text = report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "1.5,2.5,0.25,10,2,rollout"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# oracle-zero, determinism, batch invariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["next_step", "infill", "rollout"])
def test_oracle_predictions_score_exactly_zero(mode):
    trajs, norm = make_corpus(n_traj=8, points=12, noise=2e-4)
    params = tm.init_params(TINY, np.random.default_rng(22))
    rep = evaluate(
        params,
        TINY,
        trajs,
        norm,
        mode,
        horizon=4,
        mask_ratio=0.3,
        seed=5,
        predict_fn=oracle_for(trajs, norm),
    )
    assert rep.ade_m == 0.0
    assert rep.fde_m == 0.0
    assert rep.time_mae_s == 0.0
    assert rep.n_points >= 1
    assert rep.objective == mode


@pytest.mark.parametrize("mode", ["next_step", "infill", "rollout"])
def test_metrics_independent_of_batch_size(mode):
    trajs, norm = make_corpus(n_traj=6, points=10, noise=1e-4)
    params = tm.init_params(TINY, np.random.default_rng(23))
    params.w_out.data[:] = np.random.default_rng(24).normal(0, 0.05, params.w_out.shape)
    reports = [
        evaluate(
            params, TINY, trajs, norm, mode, horizon=3, seed=9, batch_size=b
        ).to_json()
        for b in (1, 4, 32)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_fixed_inputs_give_byte_identical_reports():
    trajs, norm = make_corpus(noise=1e-4)
    params = tm.init_params(TINY, np.random.default_rng(25))
    params.w_out.data[:] = np.random.default_rng(26).normal(0, 0.05, params.w_out.shape)
    a = evaluate(params, TINY, trajs, norm, "next_step").to_json()
    b = evaluate(params, TINY, trajs, norm, "next_step").to_json()
    assert a == b


def test_next_step_counts_every_supervised_position():
    trajs, norm = make_corpus(n_traj=7, points=9)
    params = tm.init_params(TINY, np.random.default_rng(27))
    rep = evaluate(params, TINY, trajs, norm, "next_step")
    assert rep.n_points == 7 * 8
    assert rep.n_traj == 7
    assert math.isfinite(rep.ade_m) and rep.ade_m >= 0.0


# ---------------------------------------------------------------------------
# infill mode
# ---------------------------------------------------------------------------


def test_infill_coverage_tracks_mask_ratio():
    # 100 trajectories x 10 points = 1000-point corpus
    trajs, norm = make_corpus(n_traj=100, points=10)
    params = tm.init_params(TINY, np.random.default_rng(28))
    ratio = 0.15
    rep = evaluate(params, TINY, trajs, norm, "infill", mask_ratio=ratio, seed=1)
    candidates = sum(len(t) - 1 for t in trajs)  # final positions never score
    expected = candidates * ratio
    sd = math.sqrt(candidates * ratio * (1 - ratio))
    assert abs(rep.n_points - expected) <= 3 * sd


def test_infill_seed_controls_the_masks():
    trajs, norm = make_corpus(n_traj=20, points=10)
    params = tm.init_params(TINY, np.random.default_rng(29))
    a = evaluate(params, TINY, trajs, norm, "infill", seed=3).to_json()
    b = evaluate(params, TINY, trajs, norm, "infill", seed=3).to_json()
    c = evaluate(params, TINY, trajs, norm, "infill", seed=4)
    assert a == b
    assert json_points(a) != c.n_points or a != c.to_json()


def json_points(s):
    import json

    return json.loads(s)["n_points"]


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def test_rollout_horizon_zero_is_empty():
    trajs, norm = make_corpus(n_traj=2)
    params = tm.init_params(TINY, np.random.default_rng(30))
    assert rollout(params, TINY, norm, trajs[0], 0) == []


def test_rollout_timestamps_strictly_increase_even_untrained():
    trajs, norm = make_corpus(n_traj=2)
    params = tm.init_params(TINY, np.random.default_rng(31))  # zero output head
    suffix = rollout(params, TINY, norm, trajs[0], 6)
    ts = [trajs[0].points[-1].t] + [p.t for p in suffix]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    # untrained model predicts zero deltas: stay put, one-second floor
    assert all(p.lat == trajs[0].points[-1].lat for p in suffix)
    assert all(b - a == 1 for a, b in zip(ts, ts[1:]))


def test_rollout_validates_inputs():
    trajs, norm = make_corpus(n_traj=2, points=30)
    params = tm.init_params(TINY, np.random.default_rng(32))
    with pytest.raises(ValueError, match="max_seq"):
        rollout(params, TINY, norm, trajs[0], 5)  # 30 + 5 > 32
    with pytest.raises(ValueError, match="horizon"):
        rollout(params, TINY, norm, trajs[0], -1)
    short = Trajectory(id="s", points=trajs[0].points[:2])
    rollout(params, TINY, norm, short, 1)  # minimum prefix is fine
    bidi = tm.ModelConfig(
        d_model=8, n_heads=2, n_blocks=1, max_seq=32, attention_mode="bidirectional"
    )
    with pytest.raises(ValueError, match="causal"):
        rollout(tm.init_params(bidi, np.random.default_rng(33)), bidi, norm, short, 1)
    patched = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=32, patch_len=2)
    with pytest.raises(ValueError, match="patch_len"):
        rollout(tm.init_params(patched, np.random.default_rng(34)), patched, norm, short, 1)


def test_rollout_evaluation_skips_short_trajectories():
    trajs, norm = make_corpus(n_traj=4, points=5)
    params = tm.init_params(TINY, np.random.default_rng(35))
    rep = evaluate(params, TINY, trajs, norm, "rollout", horizon=3)
    assert rep.n_traj == 4  # 5 >= 3 + 2, all qualify
    with pytest.raises(ValueError, match="no positions"):
        evaluate(params, TINY, trajs, norm, "rollout", horizon=4)  # none qualify


def test_rollout_featurizing_a_time_past_max_t_raises():
    start = geo.MAX_T - 3
    prefix = Trajectory(id="late", points=[(52.5, 13.4, start), (52.5, 13.4, start + 1)])
    norm = NormalizationParams(52.5, 13.4, 0.1, 0.1)
    params = tm.init_params(TINY, np.random.default_rng(39))  # one-second steps
    # the second decoded point lands on MAX_T; every decoded point is checked,
    # the final one too
    assert [p.t for p in rollout(params, TINY, norm, prefix, 1)] == [start + 2]
    with pytest.raises(tr.NumericsError, match="'late': timestamp .* outside"):
        rollout(params, TINY, norm, prefix, 2)
    corpus = [Trajectory(id="late", points=[*prefix.points, (52.5, 13.4, start + 2)])]
    oracle = lambda features, traj_id: np.zeros((len(features), 3))  # noqa: E731
    for predict_fn in (None, oracle):
        with pytest.raises(tr.NumericsError, match="'late': timestamp .* outside"):
            rollout(params, TINY, norm, prefix, 3, predict_fn=predict_fn)
    evaluate(params, TINY, corpus, norm, "rollout", horizon=1)


@pytest.mark.parametrize("path", ["model", "predict_fn"])
def test_rollout_checks_the_final_decoded_point(path):
    prefix = Trajectory(id="far", points=[(52.5, 13.4, 0), (52.5, 13.4, 60)])
    norm = NormalizationParams(52.5, 13.4, 0.1, 0.1)
    params = tm.init_params(TINY, np.random.default_rng(40))
    params.b_out.data[2] = 1e300  # a finite interval of 6e301 s
    huge = lambda features, traj_id: np.tile([0.0, 0.0, 1e300], (len(features), 1))  # noqa: E731
    predict_fn = huge if path == "predict_fn" else None
    with pytest.raises(tr.NumericsError, match="'far': timestamp .* at index 2 outside"):
        rollout(params, TINY, norm, prefix, 1, predict_fn=predict_fn)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
@pytest.mark.parametrize("mode", ["next_step", "infill", "rollout"])
@pytest.mark.parametrize("channel,value", [(2, 1e308), (0, np.nan), (1, np.inf)])
def test_nonfinite_prediction_raises_numerics_error_naming_the_trajectory(mode, channel, value):
    trajs, norm = make_corpus(n_traj=4, points=8, seed=41)
    bad = trajs[2].id

    def predict(features, traj_id):
        out = np.zeros((len(features), 3))
        if traj_id == bad:
            out[:, channel] = value  # 1e308 is finite, but not once read in seconds
        return out

    params = tm.init_params(TINY, np.random.default_rng(42))
    kw = dict(horizon=2, mask_ratio=0.9, seed=3, batch_size=3)
    with pytest.raises(tr.NumericsError, match=f"{bad!r}: non-finite prediction"):
        evaluate(params, TINY, trajs, norm, mode, predict_fn=predict, **kw)
    params.b_out.data[channel] = value
    with pytest.raises(tr.NumericsError, match=f"{trajs[0].id!r}: non-finite prediction"):
        evaluate(params, TINY, trajs, norm, mode, **kw)


def test_trained_rollout_beats_untrained_on_straight_lines():
    trajs, norm = make_corpus(n_traj=16, points=10, seed=36)
    loader = BatchLoader(trajs, 4, 10, norm)
    untrained = tm.init_params(TINY, np.random.default_rng(37))
    trained = tm.init_params(TINY, np.random.default_rng(37))
    tr.train(trained, TINY, tr.TrainConfig(lr=1e-2, epochs=50, seed=11), loader)
    ade_untrained = evaluate(untrained, TINY, trajs, norm, "rollout", horizon=3).ade_m
    ade_trained = evaluate(trained, TINY, trajs, norm, "rollout", horizon=3).ade_m
    assert ade_trained < ade_untrained


# ---------------------------------------------------------------------------
# normalization guard
# ---------------------------------------------------------------------------


def test_normalization_mismatch_is_fatal():
    trajs, norm = make_corpus()
    params = tm.init_params(TINY, np.random.default_rng(38))
    other = NormalizationParams(
        center_lat=norm.center_lat + 1.0,
        center_lon=norm.center_lon,
        scale_lat=norm.scale_lat,
        scale_lon=norm.scale_lon,
    )
    with pytest.raises(NormalizationMismatchError):
        evaluate(params, TINY, trajs, norm, "next_step", dataset_norm=other)
    rep = evaluate(params, TINY, trajs, norm, "next_step", dataset_norm=norm)
    assert rep.n_traj == len(trajs)


# ---------------------------------------------------------------------------
# batched, K/V-cached evaluation equals the per-trajectory full recompute
# ---------------------------------------------------------------------------

ROLLOUT_CONFIGS = {
    "plain": {},
    "rope": {"rope_enabled": True},
    "time2vec": {"use_time2vec": True, "time2vec_k": 4},
    "no_pe": {"use_positional_encoding": False},
    "no_dt": {"use_dt_feature": False},
}


def random_params(cfg, seed):
    """Every parameter drawn at a scale where rollouts move and curve."""
    params = tm.init_params(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for t in tm.named_parameters(params).values():
        t.data[:] = rng.normal(0.0, 0.3, t.shape)
    params.b_out.data[2] = 1.0  # steps of about a minute, not the one-second floor
    return params


def ragged_corpus(lengths, seed=40):
    out = []
    for i, n in enumerate(lengths):
        cfg = SyntheticConfig(n_traj=1, points_per_traj=n, noise_sigma=1e-4, seed=seed + i)
        (traj,) = generate_synthetic(cfg)
        out.append(Trajectory(id=f"r{i}", points=traj.points))
    return out, geo.compute_center(out)


def reference_rollout(params, cfg, norm, prefix, horizon):
    """Full recompute: featurize the whole running trajectory and run a full
    forward pass for every generated point, one trajectory at a time."""
    lat, lon, t = prefix.lat.tolist(), prefix.lon.tolist(), prefix.t.tolist()
    for _ in range(horizon):
        fs = geo.featurize(Trajectory.from_columns(prefix.id, lat, lon, t), norm)
        row = tm.forward_features(fs.features, params, cfg).data[-1]
        lat.append(min(90.0, max(-90.0, lat[-1] + float(row[0]) * norm.scale_lat)))
        lon.append(min(180.0, max(-180.0, lon[-1] + float(row[1]) * norm.scale_lon)))
        t.append(t[-1] + max(1, int(round(float(row[2]) * geo.DT_DIVISOR_S))))
    n = len(prefix)
    return np.array(lat[n:]), np.array(lon[n:]), np.array(t[n:])


@pytest.mark.parametrize("name", sorted(ROLLOUT_CONFIGS))
def test_cached_batched_rollout_equals_full_recompute(name):
    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=2, max_seq=24, **ROLLOUT_CONFIGS[name])
    params = random_params(cfg, seed=41)
    trajs, norm = ragged_corpus([2, 9, 4, 15, 7, 2, 12, 19, 5, 3, 11])
    horizon = 5
    expected = [reference_rollout(params, cfg, norm, traj, horizon) for traj in trajs]
    assert len({e[2][-1] - traj.t[-1] for e, traj in zip(expected, trajs)}) > 1
    assert len({e[0][-1] - traj.lat[-1] for e, traj in zip(expected, trajs)}) > 1
    for batch_size in (1, 3, 8, 64):
        batches = [
            ev._rollout_batch(params, cfg, norm, trajs[i : i + batch_size], horizon, None)
            for i in range(0, len(trajs), batch_size)
        ]
        got = [np.concatenate(column) for column in zip(*batches)]  # lat, lon, t: [B, horizon]
        for column, want in zip(got, zip(*expected)):
            np.testing.assert_array_equal(column.view(np.int64), np.stack(want).view(np.int64))
    single = rollout(params, cfg, norm, trajs[3], horizon)
    assert [p.t for p in single] == expected[3][2].tolist()


@pytest.mark.parametrize(
    "mode, attention_mode",
    [(m, "causal") for m in ("next_step", "infill", "rollout")]
    + [(m, "bidirectional") for m in ("next_step", "infill")],
)
def test_model_path_reports_independent_of_batch_size_on_ragged_corpus(mode, attention_mode):
    cfg = tm.ModelConfig(
        d_model=8, n_heads=2, n_blocks=2, max_seq=24, rope_enabled=True,
        use_time2vec=True, time2vec_k=3, attention_mode=attention_mode,
    )
    params = random_params(cfg, seed=42)
    trajs, norm = ragged_corpus([3, 17, 6, 2, 24, 9, 11, 4, 20, 8, 13])

    def full_forward(features, traj_id):  # one trajectory, no batch, no cache
        return tm.forward_features(features, params, cfg).data

    kw = dict(horizon=4, mask_ratio=0.3, seed=7)
    reference = evaluate(params, cfg, trajs, norm, mode, predict_fn=full_forward, **kw)
    assert reference.n_traj >= 8
    for batch_size in (1, 3, 8, 64):
        report = evaluate(params, cfg, iter(trajs), norm, mode, batch_size=batch_size, **kw)
        assert report.to_json() == reference.to_json()


def test_evaluate_reads_the_corpus_batch_by_batch():
    trajs, norm = ragged_corpus([5, 6, 7, 8, 9, 10, 11])
    params = random_params(TINY, seed=43)
    pulled = []
    seen_before_predict = []

    def stream():
        for traj in trajs:
            pulled.append(traj.id)
            yield traj

    def predict(features, traj_id):
        seen_before_predict.append(len(pulled))
        return np.zeros((len(features), 3))

    evaluate(params, TINY, stream(), norm, "next_step", batch_size=3, predict_fn=predict)
    assert seen_before_predict == [3, 3, 3, 6, 6, 6, 7]


def _decode_step(prev, pred_row, norm):
    """The per-point decode the array step replaced, kept as its oracle."""
    lat = prev.lat + float(pred_row[0]) * norm.scale_lat
    lon = prev.lon + float(pred_row[1]) * norm.scale_lon
    dt = max(1, round(min(float(pred_row[2]) * geo.DT_DIVISOR_S, geo.MAX_T)))
    lat = min(90.0, max(-90.0, lat))
    lon = min(180.0, max(-180.0, lon))
    return TrajPoint(lat=lat, lon=lon, t=prev.t + dt)


def test_array_decode_equals_the_per_point_decode():
    norm = NormalizationParams(10.0, 20.0, 0.5, 2.0)
    prev = [
        TrajPoint(89.9, 179.5, 100),
        TrajPoint(-89.9, -179.5, 200),
        TrajPoint(0.0, 0.0, 300),
        TrajPoint(45.0, -170.0, geo.MAX_T - 10),
        TrajPoint(-0.0, 12.5, 7),
    ]
    preds = np.array([
        [1.0, 2.0, 0.001],  # clipped at +90 and +180; a 0.06 s interval floors to 1 s
        [-1.0, -2.0, -5.0],  # clipped at -90 and -180; a negative interval floors to 1 s
        [0.25, -0.125, 2.5 / 60.0],  # an interval of 2.5 s rounds half to even: 2 s
        [0.0, 0.0, 1e300],  # capped at MAX_T, past which the trajectory check rejects it
        [1e-9, 3.0, 3.5 / 60.0],  # 3.5 s rounds to 4 s
    ])
    preds = np.concatenate([preds, [[0.1, 0.2, k + 0.5] for k in range(-3, 9)]])
    preds[-12:, 2] /= geo.DT_DIVISOR_S  # intervals that end in .5 s, both parities
    prev += [TrajPoint(1.0, 2.0, 1_000)] * 12
    assert {float(x * geo.DT_DIVISOR_S) % 1 for x in preds[-12:, 2]} == {0.5}
    columns = (np.array([p[i] for p in prev]) for i in range(3))
    lat, lon, t = ev._decode(*columns, preds, norm)
    expected = [_decode_step(p, row, norm) for p, row in zip(prev, preds)]
    got = list(map(TrajPoint, lat.tolist(), lon.tolist(), t.tolist()))
    assert [tuple(map(float.hex, p[:2])) + (p.t,) for p in got] == [
        tuple(map(float.hex, p[:2])) + (p.t,) for p in expected
    ]
    assert t.dtype == np.int64 and got[3].t == geo.MAX_T - 10 + geo.MAX_T


@pytest.mark.parametrize("mode", ["next_step", "infill", "rollout"])
def test_evaluate_at_the_default_batch_equals_one_trajectory_per_pass(mode):
    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=2, max_seq=24)
    params = random_params(cfg, seed=44)
    trajs, norm = ragged_corpus([3 + (7 * i) % 20 for i in range(ev.DEFAULT_BATCH_SIZE + 5)])
    assert ev.DEFAULT_BATCH_SIZE == 32
    kw = dict(horizon=3, mask_ratio=0.3, seed=11)
    single = evaluate(params, cfg, trajs, norm, mode, batch_size=1, **kw)
    assert evaluate(params, cfg, trajs, norm, mode, **kw).to_json() == single.to_json()


def _masked_reference(params, cfg, norm, trajs, hidden):
    """The per-position scorer the array scorer replaced, kept as its oracle:
    one trajectory per forward pass, Python floats, sums in scoring order."""
    spatial, final, interval, n_positions = [], [], [], 0
    for traj, h in zip(trajs, hidden):
        if not h.any():
            continue
        fs = geo.featurize(traj, norm)
        x = masking.apply_mask(fs.features, masking.MaskSpec(h), params.mask_emb)
        pred = tm.forward_features(x, params, cfg).data
        lat, lon = traj.lat.tolist(), traj.lon.tolist()
        last = None
        for pos, (hide_spatial, hide_temporal) in enumerate(h.tolist()):
            if hide_spatial:
                p_hat = (
                    lat[pos] + float(pred[pos, 0]) * norm.scale_lat,
                    lon[pos] + float(pred[pos, 1]) * norm.scale_lon,
                )
                p_true = (
                    lat[pos] + float(fs.targets[pos, 0]) * norm.scale_lat,
                    lon[pos] + float(fs.targets[pos, 1]) * norm.scale_lon,
                )
                last = haversine(p_hat, p_true)
                spatial.append(last)
            if hide_temporal:
                err = float(pred[pos, 2]) - float(fs.targets[pos, 2])
                interval.append(geo.DT_DIVISOR_S * abs(err))
        n_positions += int(h.any(axis=1).sum())
        if last is not None:
            final.append(last)

    def mean(values):
        total = 0.0
        for value in values:
            total += value
        return total / len(values) if values else 0.0

    return MetricsReport(
        mean(spatial), mean(final), mean(interval), n_positions, len(trajs), "infill"
    )


def test_masked_scoring_equals_the_per_position_reference():
    # one trajectory hides only temporal slots (no FDE term) and one hides
    # nothing (never forwarded); the others hide a mix
    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=2, max_seq=24)
    params = random_params(cfg, seed=45)
    trajs, norm = ragged_corpus([7, 12, 5, 9, 15])
    rng = np.random.default_rng(46)
    hidden = [rng.random((len(traj) - 1, 2)) < 0.4 for traj in trajs]
    hidden[1][:] = False
    hidden[1][[2, 5, 10], 1] = True
    hidden[2][:] = False
    assert hidden[0][:, 0].any() and hidden[3][:, 0].any() and hidden[4][:, 0].any()
    expected = _masked_reference(params, cfg, norm, trajs, hidden).to_json()
    forwarded = []

    def recording_forward(features, traj_id):
        forwarded.append(traj_id)
        return tm.forward_features(features, params, cfg).data

    for batch_size, predict_fn in ((1, None), (2, None), (8, None), (8, recording_forward)):
        acc = ev._Accumulator()
        ev._eval_masked(
            trajs, norm, params, cfg, predict_fn, batch_size, acc,
            lambda idx, n: hidden[idx], True,
        )
        assert acc.report("infill").to_json() == expected
    assert forwarded == ["r0", "r1", "r3", "r4"]


def test_report_adds_in_order_from_zero():
    # sum() on Python 3.12 and later gives 1e16 + 2 here; adding in order gives 1e16
    acc = ev._Accumulator()
    no_pairs = np.zeros((0, 2))
    acc.add(np.zeros(0, dtype=np.int64), no_pairs, no_pairs, np.array([1e16, 1.0, 1.0]))
    acc.n_positions = acc.n_traj = 1
    assert acc.report("rollout").time_mae_s == 1e16 / 3
