"""End-to-end command-line tests: every subcommand, flag overrides, exit codes."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tinytraj.autodiff as ad
import tinytraj.cli as cli
import tinytraj.data as dt
import tinytraj.evaluation as ev
import tinytraj.geo as geo
import tinytraj.masking as masking
import tinytraj.training as tr

from tinytraj.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE

from test_training import CORRUPTIONS, _rewrite_header, _set

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert run("synth", "--out", path, "--n-traj", 8, "--points", 6, "--seed", 3) == EXIT_OK
    return path


@pytest.fixture
def late_corpus(tmp_path, corpus):
    """``corpus`` plus two lines timestamped past year 9999 (line 1 and the last)."""
    path = tmp_path / "late.jsonl"
    late = [
        json.dumps({"id": "huge", "points": [[52.5, 13.4, 1], [52.6, 13.5, 2**70]]}),
        json.dumps({"id": "y33658", "points": [[52.5, 13.4, 1], [52.6, 13.5, 10**12]]}),
    ]
    lines = corpus.read_text().splitlines()
    path.write_text("\n".join([late[0], *lines, late[1]]) + "\n")
    return path


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "max_seq": 16},
                "train": {"lr": 0.003, "epochs": 2, "batch_size": 4, "seed": 5},
            }
        )
    )
    return path


@pytest.fixture
def checkpoint(tmp_path, corpus, model_config):
    path = tmp_path / "model.ckpt"
    code = run("train", "--config", model_config, "--data", corpus, "--out", path)
    assert code == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


class TestSynth:
    def test_writes_requested_line_count(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run("synth", "--out", out, "--n-traj", 100, "--seed", 7) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        first = json.loads(lines[0])
        assert set(first) == {"id", "points"}

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("synth", "--out", out, "--n-traj", 5, "--seed", 11) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_traj": 5, "seed": 1}}))
        out = tmp_path / "c.jsonl"
        assert run("synth", "--config", cfg, "--out", out, "--n-traj", 3) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_flat_config_document(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_traj": 4, "points_per_traj": 5, "seed": 2}))
        out = tmp_path / "c.jsonl"
        assert run("synth", "--config", cfg, "--out", out) == EXIT_OK
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 4
        assert all(len(r["points"]) == 5 for r in recs)

    def test_bbox_flag_constrains_points(self, tmp_path):
        out = tmp_path / "c.jsonl"
        code = run(
            "synth", "--out", out, "--n-traj", 6, "--noise-sigma", 0,
            "--bbox", 10.0, 20.0, 10.5, 20.5, "--seed", 4,
        )
        assert code == EXIT_OK
        for line in out.read_text().splitlines():
            for lat, lon, _ in json.loads(line)["points"]:
                # waypoints lie inside the box; jitter-free paths stay close
                assert 9.9 < lat < 10.6 and 19.9 < lon < 20.6

    def test_invalid_value_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "c", "--n-traj", 0) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "c", "--frobnicate") == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert run("synth") == EXIT_USAGE

    def test_unreadable_config_is_data_error(self, tmp_path):
        assert run("synth", "--config", tmp_path / "nope.json", "--out", tmp_path / "c") == EXIT_DATA

    def test_invalid_json_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("synth", "--config", cfg, "--out", tmp_path / "c") == EXIT_DATA

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 200_000 + b"]" * 200_000,  # deeper than the JSON parser recurses
            '{"seed": 1, "n_traj": 2, "note": "\u00e9"}'.encode("latin-1"),  # not UTF-8
        ],
        ids=["deeply_nested", "not_utf8"],
    )
    def test_unparsable_config_is_data_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        out = tmp_path / "c.jsonl"
        assert run("synth", "--config", cfg, "--out", out) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# fit-norm
# ---------------------------------------------------------------------------


class TestFitNorm:
    def test_writes_loadable_params(self, tmp_path, corpus):
        out = tmp_path / "norm.json"
        assert run("fit-norm", "--data", corpus, "--out", out) == EXIT_OK
        params = geo.NormalizationParams.from_dict(json.loads(out.read_text()))
        direct = geo.compute_center(dt.stream_jsonl(corpus))
        assert params.approx_equal(direct)

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run("fit-norm", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "n") == EXIT_DATA

    def test_empty_corpus_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("fit-norm", "--data", empty, "--out", tmp_path / "n") == EXIT_DATA

    def test_skips_timestamps_past_year_9999(self, tmp_path, corpus, late_corpus):
        clean, late = tmp_path / "clean.json", tmp_path / "late.json"
        assert run("fit-norm", "--data", corpus, "--out", clean) == EXIT_OK
        with pytest.warns(dt.MalformedLineWarning) as record:
            assert run("fit-norm", "--data", late_corpus, "--out", late) == EXIT_OK
        assert len(record) == 2
        assert late.read_bytes() == clean.read_bytes()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TestTrain:
    def test_writes_loadable_checkpoint(self, checkpoint, corpus):
        ckpt = tr.load_checkpoint(checkpoint)
        assert ckpt.model_config.d_model == 8
        assert ckpt.norm_params is not None
        assert [row["epoch"] for row in ckpt.history] == [0, 1]

    def test_history_csv(self, tmp_path, corpus, model_config):
        out = tmp_path / "m.ckpt"
        hist = tmp_path / "hist.csv"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", out, "--history-csv", hist,
        )
        assert code == EXIT_OK
        lines = hist.read_text().splitlines()
        assert lines[0] == "epoch,split,objective,loss"
        assert len(lines) == 3  # header + two epochs

    def test_flag_overrides_config(self, tmp_path, corpus, model_config):
        out = tmp_path / "m.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", out, "--epochs", 1, "--objective", "infill",
        )
        assert code == EXIT_OK
        ckpt = tr.load_checkpoint(out)
        assert ckpt.train_config["epochs"] == 1
        assert ckpt.train_config["objective"] == "infill"
        assert len(ckpt.history) == 1

    def test_val_fraction_adds_val_rows(self, tmp_path, corpus, model_config):
        out = tmp_path / "m.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", out, "--val-fraction", 0.4,
        )
        assert code == EXIT_OK
        ckpt = tr.load_checkpoint(out)
        assert [row["split"] for row in ckpt.history] == ["train", "val", "train", "val"]

    def test_val_fraction_zero_is_usage_error(self, tmp_path, corpus, model_config, capsys):
        out = tmp_path / "m.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", out, "--val-fraction", 0,
        )
        assert code == EXIT_USAGE
        assert "val_fraction" in capsys.readouterr().err
        assert not out.exists()

    def test_val_data_and_val_fraction_together_is_usage_error(
        self, tmp_path, corpus, model_config, capsys
    ):
        out = tmp_path / "m.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", out, "--val-data", corpus, "--val-fraction", 0.4,
        )
        assert code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_matches_unbroken_run_bitwise(self, tmp_path, corpus, model_config):
        direct = tmp_path / "direct.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus, "--out", direct
        )
        assert code == EXIT_OK

        stage1 = tmp_path / "stage1.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", stage1, "--epochs", 1,
        )
        assert code == EXIT_OK
        resumed = tmp_path / "resumed.ckpt"
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", resumed, "--resume", stage1,
        )
        assert code == EXIT_OK
        assert resumed.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("next_epoch", ["x", -1, 1.5, True])
    def test_resume_from_mistyped_next_epoch_is_data_error(
        self, tmp_path, corpus, checkpoint, next_epoch
    ):
        bad = tmp_path / "bad.ckpt"
        edit = _set(("rng_state", "next_epoch"), next_epoch)
        bad.write_bytes(_rewrite_header(checkpoint.read_bytes(), edit))
        code = run(
            "train", "--data", corpus, "--out", tmp_path / "out.ckpt", "--resume", bad
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "corruption",
        [
            "string_history",
            "history_of_numbers",
            "history_row_missing_columns",
            "adam_moment_missing",
            "adam_moment_misshaped",
        ],
    )
    def test_resume_from_malformed_history_or_moments_is_data_error(
        self, tmp_path, corpus, checkpoint, capsys, corruption
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CORRUPTIONS[corruption](checkpoint.read_bytes()))
        out = tmp_path / "out.ckpt"
        assert run("train", "--data", corpus, "--out", out, "--resume", bad) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corruption", sorted(c for c in CORRUPTIONS if c.startswith("history_value_"))
    )
    def test_resume_from_mistyped_history_value_is_data_error(
        self, tmp_path, corpus, checkpoint, capsys, corruption
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CORRUPTIONS[corruption](checkpoint.read_bytes()))
        out = tmp_path / "out.ckpt"
        assert run("train", "--data", corpus, "--out", out, "--resume", bad) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s_max", [0, 1, -4])
    def test_s_max_below_two_is_usage_error(self, tmp_path, corpus, capsys, s_max):
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", corpus, "--out", out, "--s-max", s_max) == EXIT_USAGE
        assert "--s-max" in capsys.readouterr().err
        assert not out.exists()

    def test_skips_timestamps_past_year_9999(
        self, tmp_path, checkpoint, late_corpus, model_config
    ):
        out = tmp_path / "late.ckpt"
        with pytest.warns(dt.MalformedLineWarning):
            code = run("train", "--config", model_config, "--data", late_corpus, "--out", out)
        assert code == EXIT_OK
        # the remaining lines are exactly the clean corpus the fixture trained on
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_missing_corpus_is_data_error(self, tmp_path, model_config):
        code = run(
            "train", "--config", model_config,
            "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "m.ckpt",
        )
        assert code == EXIT_DATA

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
    def test_nonfinite_loss_is_numeric_error(self, tmp_path, corpus, model_config, capsys):
        code = run(
            "train", "--config", model_config, "--data", corpus,
            "--out", tmp_path / "m.ckpt", "--lr", 1e200, "--epochs", 3,
        )
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err

    def test_nonfinite_gradient_is_numeric_error(
        self, tmp_path, corpus, model_config, capsys, monkeypatch
    ):
        real = ad.backward

        def backward(loss, tape=None):  # leave a NaN in every gradient
            grads = real(loss, tape)
            for g in grads.values():
                g[...] = np.nan
            return grads

        monkeypatch.setattr(ad, "backward", backward)
        out = tmp_path / "m.ckpt"
        code = run("train", "--config", model_config, "--data", corpus, "--out", out)
        assert code == EXIT_NUMERIC
        assert "non-finite gradient norm" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_lr_is_usage_error(self, tmp_path, corpus):
        code = run(
            "train", "--data", corpus, "--out", tmp_path / "m.ckpt", "--lr", -1
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "content",
        [b"[" * 200_000 + b"]" * 200_000, b'{"center_lat": "\xe9"}'],
        ids=["deeply_nested", "not_utf8"],
    )
    def test_unparsable_norm_file_is_data_error(
        self, tmp_path, corpus, model_config, capsys, content
    ):
        norm = tmp_path / "norm.json"
        norm.write_bytes(content)
        out = tmp_path / "m.ckpt"
        code = run("train", "--config", model_config, "--data", corpus, "--out", out, "--norm", norm)
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_norm_file_is_data_error(self, tmp_path, corpus, model_config, capsys):
        norm = tmp_path / "norm.json"
        assert run("fit-norm", "--data", corpus, "--out", norm) == EXIT_OK
        doc = json.loads(norm.read_text())
        norm.write_text(json.dumps({**doc, "scale_lat": float("inf")}))
        out = tmp_path / "m.ckpt"
        code = run("train", "--config", model_config, "--data", corpus, "--out", out, "--norm", norm)
        assert code == EXIT_DATA
        assert "scale_lat" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# --config documents
# ---------------------------------------------------------------------------


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # NaN is written as the token NaN
    return path


class TestConfigDocument:
    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"train": {"learning_rate": 5}}, "learning_rate"),
            ({"model": {"dmodel": 16}}, "dmodel"),
            ({"lr": 0.01, "epochz": 3, "d_model": 8, "n_heads": 2}, "epochz"),
            ({"modle": {"d_model": 16}}, "modle"),
            ({"model": {"d_model": 8}, "modle": {"d_model": 16}}, "modle"),
            ({"train": {"epochs": 1.5}}, "epochs"),
            ({"model": {"d_model": 8.0, "n_heads": 2}}, "d_model"),
            ({"train": {"lr": True}}, "lr"),
            ({"train": {"lr": float("nan")}}, "lr"),
            ({"train": {"mask_kinds": "dimension"}}, "mask_kinds must be tuple[str, ...]"),
            ({"train": [1, 2]}, "train"),
        ],
    )
    def test_train_rejects_unknown_or_mistyped_entries(self, tmp_path, corpus, capsys, doc, named):
        out = tmp_path / "m.ckpt"
        code = run("train", "--config", _write_config(tmp_path, doc), "--data", corpus, "--out", out)
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"synth": {"n_traj": 2.5}}, "n_traj"),
            ({"n_traj": 2, "lr": 0.1}, "lr"),
            ({"synth": {"bbox": [10, 20, 11]}}, "bbox"),
        ],
    )
    def test_synth_rejects_unknown_or_mistyped_entries(self, tmp_path, capsys, doc, named):
        code = run("synth", "--config", _write_config(tmp_path, doc), "--out", tmp_path / "c.jsonl")
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err

    def test_flat_train_document_sets_both_configs(self, tmp_path, corpus):
        doc = {"d_model": 8, "n_heads": 2, "n_blocks": 1, "max_seq": 16, "lr": 0.003, "epochs": 2}
        out = tmp_path / "m.ckpt"
        code = run("train", "--config", _write_config(tmp_path, doc), "--data", corpus, "--out", out)
        assert code == EXIT_OK
        ckpt = tr.load_checkpoint(out)
        assert ckpt.model_config.d_model == 8 and ckpt.model_config.n_blocks == 1
        assert ckpt.train_config["lr"] == 0.003 and ckpt.train_config["epochs"] == 2

    def test_flags_bind_to_field_names(self, tmp_path):
        out = tmp_path / "c.jsonl"
        code = run(
            "synth", "--out", out, "--n-traj", 2, "--points", 3, "--waypoints", 3,
            "--dt-mean", 10, "--dt-std", 0,
        )
        assert code == EXIT_OK
        for line in out.read_text().splitlines():
            times = [t for _, _, t in json.loads(line)["points"]]
            assert len(times) == 3 and np.diff(times).tolist() == [10, 10]
        args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o", "--rope"])
        assert args.rope_enabled is True
        args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o"])
        assert args.rope_enabled is None

    def test_rope_from_document_survives_absent_flag(self, tmp_path, corpus):
        doc = {"model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "max_seq": 16, "rope_enabled": True}}
        out = tmp_path / "m.ckpt"
        code = run("train", "--config", _write_config(tmp_path, doc), "--data", corpus, "--out", out)
        assert code == EXIT_OK
        assert tr.load_checkpoint(out).model_config.rope_enabled is True

    def test_eval_has_no_config_flag(self, tmp_path, corpus, checkpoint, capsys):
        cfg = _write_config(tmp_path, {})
        assert run("eval", "--ckpt", checkpoint, "--data", corpus, "--config", cfg) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_json_report_to_stdout(self, corpus, checkpoint, capsys):
        assert run("eval", "--ckpt", checkpoint, "--data", corpus) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report) == set(ev.CSV_COLUMNS)
        assert report["objective"] == "next_step"
        assert report["n_traj"] == 8
        assert report["n_points"] == 8 * 5  # positions with a previous point

    def test_csv_format_single_row(self, corpus, checkpoint, capsys):
        code = run("eval", "--ckpt", checkpoint, "--data", corpus, "--format", "csv")
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ade_m,fde_m,time_mae_s,n_points,n_traj,objective"
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 6
        assert lines[1].split(",")[-1] == "next_step"

    def test_report_written_to_file(self, tmp_path, corpus, checkpoint):
        out = tmp_path / "report.json"
        code = run("eval", "--ckpt", checkpoint, "--data", corpus, "--out", out)
        assert code == EXIT_OK
        assert set(json.loads(out.read_text())) == set(ev.CSV_COLUMNS)

    @pytest.mark.parametrize("mode", ["infill", "rollout"])
    def test_other_modes_run(self, corpus, checkpoint, capsys, mode):
        code = run(
            "eval", "--ckpt", checkpoint, "--data", corpus,
            "--mode", mode, "--horizon", 3,
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == mode

    def test_matching_norm_passes(self, tmp_path, corpus, checkpoint):
        norm = tmp_path / "norm.json"
        assert run("fit-norm", "--data", corpus, "--out", norm) == EXIT_OK
        code = run("eval", "--ckpt", checkpoint, "--data", corpus, "--norm", norm)
        assert code == EXIT_OK

    def test_mismatched_norm_is_data_error(self, tmp_path, corpus, checkpoint, capsys):
        other = tmp_path / "other.jsonl"
        assert run(
            "synth", "--out", other, "--n-traj", 6, "--seed", 99,
            "--bbox", 40.0, -74.5, 40.5, -74.0,
        ) == EXIT_OK
        norm = tmp_path / "norm.json"
        assert run("fit-norm", "--data", other, "--out", norm) == EXIT_OK
        code = run("eval", "--ckpt", checkpoint, "--data", corpus, "--norm", norm)
        assert code == EXIT_DATA

    def test_missing_checkpoint_is_data_error(self, tmp_path, corpus):
        assert run("eval", "--ckpt", tmp_path / "nope.ckpt", "--data", corpus) == EXIT_DATA

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, corpus):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"definitely not a checkpoint")
        assert run("eval", "--ckpt", bad, "--data", corpus) == EXIT_DATA

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_malformed_checkpoint_is_data_error(self, tmp_path, corpus, checkpoint, corruption):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CORRUPTIONS[corruption](checkpoint.read_bytes()))
        assert run("eval", "--ckpt", bad, "--data", corpus) == EXIT_DATA

    def test_header_claiming_a_larger_model_fails_before_allocating_it(
        self, tmp_path, corpus, checkpoint
    ):
        # the stored arrays are for d_model 8; at d_model 1024 one block's
        # parameters alone would take about 100 MB
        bad = tmp_path / "big.ckpt"
        bad.write_bytes(
            _rewrite_header(checkpoint.read_bytes(), _set(("model_config", "d_model"), 1024))
        )
        tracemalloc.start()
        try:
            code = run("eval", "--ckpt", bad, "--data", corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        assert peak < 4e6

    def test_batch_size_does_not_change_the_report(self, corpus, checkpoint, capsys):
        reports = set()
        for batch_size in (1, 3, 64):
            code = run(
                "eval", "--ckpt", checkpoint, "--data", corpus,
                "--mode", "rollout", "--horizon", 3, "--batch-size", batch_size,
            )
            assert code == EXIT_OK
            reports.add(capsys.readouterr().out)
        assert len(reports) == 1

    def test_bad_mode_is_usage_error(self, tmp_path, corpus, checkpoint):
        assert run("eval", "--ckpt", checkpoint, "--data", corpus, "--mode", "zigzag") == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [
            ("--mode", "infill", "--mask-ratio", 1.5),
            ("--mode", "infill", "--mask-ratio", 0),
            ("--mode", "rollout", "--horizon", 0),
            ("--mode", "rollout", "--horizon", -3),
            ("--batch-size", 0),
        ],
    )
    def test_bad_flag_value_is_usage_error(self, corpus, checkpoint, capsys, flags):
        assert run("eval", "--ckpt", checkpoint, "--data", corpus, *flags) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_empty_or_unscorable_corpus_is_data_error(self, tmp_path, corpus, checkpoint):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("eval", "--ckpt", checkpoint, "--data", empty) == EXIT_DATA
        # every trajectory has 6 points: too short for a horizon of 5
        code = run("eval", "--ckpt", checkpoint, "--data", corpus, "--mode", "rollout")
        assert code == EXIT_DATA


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


class TestRollout:
    def test_default_first_trajectory(self, corpus, checkpoint, capsys):
        code = run("rollout", "--ckpt", checkpoint, "--data", corpus, "--horizon", 4)
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["id"] == "syn-3-00000"
        assert record["prefix_len"] == 6
        assert len(record["points"]) == 4
        last_t = json.loads(corpus.read_text().splitlines()[0])["points"][-1][2]
        ts = [p[2] for p in record["points"]]
        assert ts[0] > last_t and ts == sorted(ts)

    def test_select_by_id_and_prefix_len(self, corpus, checkpoint, capsys):
        code = run(
            "rollout", "--ckpt", checkpoint, "--data", corpus,
            "--traj-id", "syn-3-00002", "--prefix-len", 3, "--horizon", 2,
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["id"] == "syn-3-00002"
        assert record["prefix_len"] == 3
        assert len(record["points"]) == 2

    def test_output_file(self, tmp_path, corpus, checkpoint):
        out = tmp_path / "suffix.json"
        code = run(
            "rollout", "--ckpt", checkpoint, "--data", corpus,
            "--horizon", 2, "--out", out,
        )
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["points"]) == 2

    def test_unknown_id_is_data_error(self, corpus, checkpoint):
        code = run(
            "rollout", "--ckpt", checkpoint, "--data", corpus, "--traj-id", "ghost"
        )
        assert code == EXIT_DATA

    def test_bad_prefix_len_is_usage_error(self, corpus, checkpoint):
        code = run(
            "rollout", "--ckpt", checkpoint, "--data", corpus, "--prefix-len", 1
        )
        assert code == EXIT_USAGE

    def test_prefix_len_zero_is_usage_error(self, corpus, checkpoint, capsys):
        code = run(
            "rollout", "--ckpt", checkpoint, "--data", corpus, "--prefix-len", 0
        )
        assert code == EXIT_USAGE
        assert "--prefix-len" in capsys.readouterr().err

    def test_oversized_horizon_is_usage_error(self, corpus, checkpoint):
        code = run(
            "rollout", "--ckpt", checkpoint, "--data", corpus, "--horizon", 1000
        )
        assert code == EXIT_USAGE


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
@pytest.mark.parametrize("name,index", [("head.b", 2), ("head.w", None)])
@pytest.mark.parametrize(
    "argv",
    [
        ("eval",),
        ("eval", "--mode", "infill", "--mask-ratio", 0.5),
        ("eval", "--mode", "rollout", "--horizon", 3),
        ("rollout",),
    ],
)
def test_nonfinite_prediction_is_numeric_error(
    tmp_path, corpus, checkpoint, capsys, name, index, argv
):
    # head.b[2] = 1e308 predicts a finite interval that overflows in seconds;
    # head.w = 1e308 makes every prediction infinite
    ckpt = tr.load_checkpoint(checkpoint)
    array = ckpt.arrays[name].copy()
    array[..., index if index is not None else slice(None)] = 1e308
    ckpt.arrays[name] = array
    bad = tmp_path / "bad.ckpt"
    tr.save_checkpoint(ckpt, bad)
    assert run(*argv, "--ckpt", bad, "--data", corpus) == EXIT_NUMERIC
    assert "trajectory 'syn-3-00000': non-finite prediction" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("eval", "--mode", "rollout"), ("rollout",)])
def test_rollout_point_past_max_t_is_numeric_error(tmp_path, corpus, checkpoint, capsys, argv):
    # head.b[2] = 1e300 predicts a finite interval of 6e301 s: the generated
    # point's time lies past MAX_T, which is the model's failure, not the data's
    ckpt = tr.load_checkpoint(checkpoint)
    array = ckpt.arrays["head.b"].copy()
    array[2] = 1e300
    ckpt.arrays["head.b"] = array
    bad = tmp_path / "bad.ckpt"
    tr.save_checkpoint(ckpt, bad)
    assert run(*argv, "--horizon", 1, "--ckpt", bad, "--data", corpus) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure: model-made point: trajectory 'syn-3-00000': timestamp" in err


# ---------------------------------------------------------------------------
# pretext-check
# ---------------------------------------------------------------------------


class TestPretextCheck:
    def test_reports_both_rmse_values(self, corpus, capsys):
        code = run(
            "pretext-check", "--data", corpus,
            "--d-latent", 8, "--steps", 20, "--max-traj", 4,
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"raw_rmse", "pe_rmse"}
        assert report["raw_rmse"] >= 0.0 and np.isfinite(report["raw_rmse"])
        assert report["pe_rmse"] >= 0.0 and np.isfinite(report["pe_rmse"])

    def test_empty_corpus_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("pretext-check", "--data", empty) == EXIT_DATA

    @pytest.mark.parametrize(
        "flags", [("--max-traj", 0), ("--max-traj", -7), ("--steps", 0), ("--steps", -1)]
    )
    def test_flag_out_of_range_is_usage_error(self, corpus, capsys, flags):
        assert run("pretext-check", "--data", corpus, "--d-latent", 8, *flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert flags[0] in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# top-level behaviour
# ---------------------------------------------------------------------------


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self):
        assert cli.main([]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert cli.main(["dance"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == EXIT_OK
        assert "synth" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert cli.main(["train", "--help"]) == EXIT_OK
        assert "--resume" in capsys.readouterr().out

    def test_full_pipeline_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        ckpt = tmp_path / "m.ckpt"
        assert run("synth", "--out", corpus, "--n-traj", 6, "--points", 5, "--seed", 1) == EXIT_OK
        assert run(
            "train", "--data", corpus, "--out", ckpt,
            "--d-model", 8, "--n-heads", 2, "--n-blocks", 1,
            "--max-seq", 8, "--epochs", 1, "--batch-size", 3,
        ) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--ckpt", ckpt, "--data", corpus, "--format", "csv") == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[0]) >= 0.0  # ade_m
        assert int(row[4]) == 6  # n_traj


def test_eval_flag_defaults_are_the_librarys():
    parser = cli.build_parser()
    args = parser.parse_args(["eval", "--ckpt", "c", "--data", "d"])
    assert args.batch_size == ev.DEFAULT_BATCH_SIZE
    assert args.mask_ratio == masking.DEFAULT_MASK_RATIO
    defaults = inspect.signature(ev.evaluate).parameters
    assert defaults["batch_size"].default == ev.DEFAULT_BATCH_SIZE
    assert defaults["mask_ratio"].default == masking.DEFAULT_MASK_RATIO


NO_SCIPY = """
import json
import sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from tinytraj import cli, data, geo

tmp = sys.argv[1]
out, norm, ckpt = tmp + "/corpus.jsonl", tmp + "/norm.json", tmp + "/model.ckpt"
assert cli.main(["synth", "--out", out, "--n-traj", "9", "--points", "7", "--seed", "2"]) == 0
assert cli.main(["fit-norm", "--data", out, "--out", norm]) == 0
with open(norm) as fh:
    params = geo.NormalizationParams.from_dict(json.load(fh))
batches = list(data.batchify(data.stream_jsonl(out), 4, 8, params))
assert sum(b.features.shape[0] for b in batches) == 9
# the model's GELU, its gradient and the kernel's load-time self-check too
assert cli.main([
    "train", "--data", out, "--out", ckpt, "--norm", norm, "--epochs", "1", "--batch-size", "4",
    "--d-model", "8", "--n-heads", "2", "--n-blocks", "1", "--max-seq", "8",
]) == 0
for mode in ("rollout", "infill"):
    report = tmp + f"/{mode}.json"
    assert cli.main(["eval", "--ckpt", ckpt, "--data", out, "--mode", mode, "--out", report]) == 0
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""


def test_reading_training_and_evaluating_never_import_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
