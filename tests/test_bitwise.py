"""Bitwise equivalence of the batched forward/backward pass.

A ragged batch's forward output and every parameter gradient must equal
those of separate single-sequence passes, compared as raw float64 bits.

Goldens of the training loop: SHA-256 digests of the step losses and of the
saved checkpoint bytes for a small matrix of configurations: causal and
bidirectional attention, RoPE, Time2Vec, patching, dropped dt column, the
three objectives, and ragged lengths inside one batch. They were recorded
with the per-sequence forward pass and pin every later kernel change to the
same bits.

Float64 results are bit-stable on one platform only (numpy's SIMD kernels
decide the last bits of exp, sin, ...), so the goldens are keyed to the host
they were recorded on. Print fresh goldens for this host with

    PYTHONPATH=src python tests/test_bitwise.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import warnings

import numpy as np
import pytest

from tinytraj import autodiff as ad
from tinytraj import data as dt
from tinytraj import geo, masking
from tinytraj import model as tm
from tinytraj import training as tr

LENGTHS = (3, 12, 7, 10, 5, 12, 9)  # cycled over the corpus: every batch is ragged

CASES = {
    "causal_next_step": ({}, {}),
    "bidirectional_next_step": ({"attention_mode": "bidirectional"}, {}),
    "bidirectional_infill": ({"attention_mode": "bidirectional"}, {"objective": "infill"}),
    "causal_alternating_val": ({}, {"objective": "alternating"}),
    "rope_no_dt": ({"rope_enabled": True, "use_dt_feature": False}, {}),
    "time2vec_alternating": ({"use_time2vec": True, "time2vec_k": 4}, {"objective": "alternating"}),
    "patch2_next_step": ({"patch_len": 2, "max_seq": 6}, {}),
    "patch2_time2vec_bidirectional": (
        {"patch_len": 2, "max_seq": 6, "use_time2vec": True, "attention_mode": "bidirectional"},
        {},
    ),
}

GOLDEN_HOST = {
    "machine": "x86_64",
    "numpy": "2.4.6",
    "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}
GOLDENS = {
    "bidirectional_infill": {
        "losses_sha256": "1165eebb981bf8c010d097e0b137631a05ba2825cb5e47f93ca6511f22bdd588",
        "ckpt_sha256": "fabd93b66d8d946586e278a15c7bdf592bd79cba26f1accc3f623d35c02aa040",
    },
    "bidirectional_next_step": {
        "losses_sha256": "278c6a5da95f49cc8ac76b20216dc526540dc143d16efb535282bf8d6182da58",
        "ckpt_sha256": "7462d8a58995c0637c70447d71fa409a966b58042c17e01b2f75c42cabf37bca",
    },
    "causal_alternating_val": {
        "losses_sha256": "81f28a5f6a9d850ca8acb3aff2850e89fcb7b66a4cc917605548aa535e495a3e",
        "ckpt_sha256": "b12a9b4a640201ec9836a2f5f49008d2758e854c53b7fc3155151097b38278dc",
    },
    "causal_next_step": {
        "losses_sha256": "59eb2e9df762ec3a16a8617e747b6f708e5fe746c135753b9234f96e5b028354",
        "ckpt_sha256": "ea1bba12102833a31a7d682482c3ce3790837980dce03dcde2c8dbd289ce3e73",
    },
    "patch2_next_step": {
        "losses_sha256": "2a678c8f5bce125337a6c5589b320ea1249b87718ad15fc0f3bfb33b006b5e87",
        "ckpt_sha256": "e12d43c3acc14f30bf05fe3f0e7d280e790a6b136586a41ff67843a6a5b61e94",
    },
    "patch2_time2vec_bidirectional": {
        "losses_sha256": "e1fd56f8beac86792e0d4ad0323e485f6e9a80eb05dd8a32c0c54aac5e8cfd56",
        "ckpt_sha256": "a360f0d1bdfbf6b79fa07df5c55bf0e29083dfcb99ac5fef7f567640fa8c6f42",
    },
    "rope_no_dt": {
        "losses_sha256": "eee19994615f31d985aae9e89e5cf45aa320c87f10502d4b8e34290dfb449834",
        "ckpt_sha256": "c19d654dc28ca376d2f6bc66ca04e7c27de99f25c187aceffea0e4e457f9e581",
    },
    "time2vec_alternating": {
        "losses_sha256": "53632de0e1be048f679a5b1683bdb16171b2b860ee23326b759bd4f25617815e",
        "ckpt_sha256": "ce0b34df0977e8f57cd0bcdb60ba7493b410611735f757e44925184008490737",
    },
}


def host_fingerprint() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"machine": platform.machine(), "numpy": np.__version__, "simd": simd}


def ragged_corpus(n: int, seed: int) -> list[geo.Trajectory]:
    cfg = dt.SyntheticConfig(n_traj=n, points_per_traj=max(LENGTHS), noise_sigma=1e-5, seed=seed)
    return [
        geo.Trajectory(id=t.id, points=t.points[: LENGTHS[i % len(LENGTHS)]])
        for i, t in enumerate(dt.generate_synthetic(cfg))
    ]


def run_case(name: str, tmp_path) -> dict[str, str]:
    model_kw, train_kw = CASES[name]
    model_cfg = tm.ModelConfig(**{"d_model": 8, "n_heads": 2, "n_blocks": 2, "max_seq": 12, **model_kw})
    train_cfg = tr.TrainConfig(
        **{"lr": 1e-2, "epochs": 2, "batch_size": 4, "mask_ratio": 0.3, "seed": 11, **train_kw}
    )
    trajs = ragged_corpus(14, seed=21)
    norm = geo.compute_center(trajs)
    s_max = model_cfg.max_seq * model_cfg.patch_len
    loader = dt.BatchLoader(trajs, train_cfg.batch_size, s_max, norm)
    val = dt.BatchLoader(ragged_corpus(6, seed=22), 3, s_max, norm) if name.endswith("_val") else None
    params = tm.init_params(model_cfg, np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tr.NoSupervisionWarning)
        result = tr.train(params, model_cfg, train_cfg, loader, val_loader=val, norm_params=norm)
    path = tmp_path / f"{name}.ckpt"
    tr.save_checkpoint(result.checkpoint, path)
    losses = np.asarray(result.step_losses, dtype=np.float64)
    return {
        "losses_sha256": hashlib.sha256(losses.tobytes()).hexdigest(),
        "ckpt_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _grads(params) -> dict[str, np.ndarray]:
    return {n: t.grad.copy() for n, t in tm.named_parameters(params).items()}


@pytest.mark.parametrize(
    "model_kw,masked",
    [
        ({}, False),
        ({"rope_enabled": True, "use_time2vec": True, "time2vec_k": 3}, True),
        ({"attention_mode": "bidirectional"}, True),
        ({"attention_mode": "bidirectional", "rope_enabled": True, "use_dt_feature": False}, False),
        ({"patch_len": 2, "max_seq": 6}, False),
        ({"attention_mode": "bidirectional", "patch_len": 2, "max_seq": 6, "use_time2vec": True}, False),
    ],
)
def test_ragged_batch_equals_separate_single_sequence_passes(model_kw, masked):
    cfg = tm.ModelConfig(**{"d_model": 8, "n_heads": 2, "n_blocks": 2, "max_seq": 12, **model_kw})
    rng = np.random.default_rng(31)
    params = tm.init_params(cfg, rng)
    for t in tm.named_parameters(params).values():
        t.data += rng.normal(0.0, 0.1, t.shape)
    lengths = (3, 12, 7, 10, 5)
    s, p = max(lengths), cfg.patch_len
    features = np.zeros((len(lengths), s, geo.FEATURE_DIM))
    for row, n in enumerate(lengths):
        features[row, :n] = rng.normal(0.0, 1.0, (n, geo.FEATURE_DIM))
    specs = [masking.sample_dimension_mask(n - 1, 0.4, rng) for n in lengths]
    valid = [-(-n // p) for n in lengths]
    weights = [rng.normal(0.0, 1.0, (v, 3)) for v in valid]

    def model_input(row, n):
        x = features[row, :n]
        return masking.apply_mask(x, specs[row], params.mask_emb) if masked else x

    # B separate passes, gradients folded as a reverse tape would: last first
    outs, per_row = [], []
    for row, n in enumerate(lengths):
        tape = ad.Tape()
        tm.bind_params(params, tape)
        pred = tm.forward_features(model_input(row, n), params, cfg)
        outs.append(pred.data)
        ad.backward(ad.tensor_sum(ad.mul(pred, ad.Tensor(weights[row]))))
        per_row.append(_grads(params))
    folded = per_row[-1]
    for g in per_row[-2::-1]:
        folded = {k: folded[k] + g[k] for k in g}

    # one batched pass
    tape = ad.Tape()
    tm.bind_params(params, tape)
    x = features
    if masked:
        hidden = np.zeros((len(lengths), s, 2), dtype=bool)
        for row, spec in enumerate(specs):
            hidden[row, : len(spec.hidden)] = spec.hidden
        x = masking.apply_mask(features, masking.MaskSpec(hidden), params.mask_emb)
    pred = tm.forward_features(x, params, cfg, lengths=lengths)
    for row, v in enumerate(valid):
        np.testing.assert_array_equal(bits(pred.data[row, :v]), bits(outs[row]))
    b, s_out, _ = pred.shape
    rows = np.concatenate([row * s_out + np.arange(v) for row, v in enumerate(valid)])
    flat = ad.gather_rows(ad.reshape(pred, (b * s_out, 3)), rows)
    ad.backward(ad.tensor_sum(ad.mul(flat, ad.Tensor(np.concatenate(weights)))))
    batched = _grads(params)
    assert batched.keys() == folded.keys()
    for name in batched:
        np.testing.assert_array_equal(bits(batched[name]), bits(folded[name]), err_msg=name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_matches_recorded_goldens(name, tmp_path):
    if host_fingerprint() != GOLDEN_HOST:
        pytest.skip(f"goldens were recorded on {GOLDEN_HOST}, not this host")
    assert run_case(name, tmp_path) == GOLDENS[name]


def test_numpy_contraction_matches_recorded_goldens(monkeypatch, tmp_path):
    # the goldens above run on the compiled kernel where the host builds it;
    # one case again on the numpy bodies, which must give the same bits
    if host_fingerprint() != GOLDEN_HOST:
        pytest.skip(f"goldens were recorded on {GOLDEN_HOST}, not this host")
    monkeypatch.setattr(ad, "_ops", ad._NUMPY)
    assert ad.KERNEL == "numpy"
    assert run_case("time2vec_alternating", tmp_path) == GOLDENS["time2vec_alternating"]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    json.dump({"host": host_fingerprint(), "goldens": goldens}, sys.stdout, indent=4)
    print()
