"""Property tests of the config and checkpoint-header boundaries.

Whatever JSON a config document or checkpoint header holds, parsing either
returns a value or raises a typed error. Fuzzed configs are only parsed and
compared, never used to build a model or a corpus: a valid ``d_model`` of
10**9 would allocate gigabytes.
"""

import dataclasses
import functools
import json
import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinytraj import data, geo
from tinytraj import model as tm
from tinytraj import training as tr

from test_training import _rewrite_header, _set

@functools.cache
def _checkpoint_bytes() -> bytes:
    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=8)
    params = tm.init_params(cfg, np.random.default_rng(0))
    ckpt = tr.make_checkpoint(
        params,
        cfg,
        norm_params=geo.NormalizationParams(52.5, 13.4, 0.1, 0.2),
        adam=tr.init_adam_state(tm.named_parameters(params)),
        rng_state={"seed": 0, "next_epoch": 1},
        history=[{"epoch": 0, "split": "train", "objective": "next_step", "loss": 0.5}],
        train_config=tr.TrainConfig().to_dict(),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        tr.save_checkpoint(ckpt, path)
        return path.read_bytes()


HEADER_START = len(tr.CHECKPOINT_MAGIC) + 4 + 8  # after the magic, version and header length


def _header(blob: bytes) -> bytes:
    (n,) = struct.unpack_from("<Q", blob, HEADER_START - 8)
    return blob[HEADER_START : HEADER_START + n]


# one valid instance of each config, and a checkpoint header
VALID = [
    data.SyntheticConfig(),
    tm.ModelConfig(),
    tr.TrainConfig(),
    geo.NormalizationParams(52.5, 13.4, 0.1, 0.2),
    tr._Header.from_dict(json.loads(_header(_checkpoint_bytes()))),
]

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
# values a config may accept, so that the accepting branch is exercised too
plausible = (
    st.integers(-2, 64)
    | st.floats(-1.0, 100.0)
    | st.sampled_from(
        ["causal", "bidirectional", "next_step", "infill", "alternating", "mse", "huber"]
    )
    | st.lists(st.sampled_from(["dimension", "segment"]), min_size=1, max_size=3)
    | st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4)
)


def _documents(valid):
    """Dicts of field names and one bogus key, alone or over a valid document."""
    keys = st.sampled_from([f.name for f in dataclasses.fields(valid)] + ["bogus"])
    edits = st.dictionaries(keys, plausible | json_values, max_size=4)
    near_valid = st.dictionaries(keys, plausible, max_size=2).map(
        lambda e: {**valid.to_dict(), **e}
    )
    return edits | near_valid | json_values


@pytest.mark.parametrize("valid", VALID, ids=lambda c: type(c).__name__)
def test_from_dict_round_trips_or_raises(valid):
    cls = type(valid)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_documents(valid))
    def check(doc):
        try:
            cfg = cls.from_dict(doc)
        except (ValueError, TypeError):
            return
        assert cls.from_dict(cfg.to_dict()) == cfg
        assert cls.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    check()


HEADER_PATHS = [
    ("version",),
    ("model_config",),
    ("normalization",),
    ("adam_step",),
    ("rng_state",),
    ("history",),
    ("train_config",),
    ("arrays",),
    ("arrays", 0),
    ("arrays", 0, "shape"),
    ("arrays", 0, "name"),
    *(("model_config", f.name) for f in dataclasses.fields(tm.ModelConfig)),
    *(("normalization", f.name) for f in dataclasses.fields(geo.NormalizationParams)),
    ("history", 0),
    *(("history", 0, name) for name in tr.HISTORY_COLUMNS),
    ("rng_state", "seed"),
    ("rng_state", "next_epoch"),
    *(("train_config", f.name) for f in dataclasses.fields(tr.TrainConfig)),
]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(HEADER_PATHS), plausible | json_values)
def test_load_checkpoint_accepts_or_raises_typed_errors(path, value):
    edited = _rewrite_header(_checkpoint_bytes(), _set(path, value))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = Path(tmp) / "fuzz.ckpt"
        ckpt_path.write_bytes(edited)
        try:
            tr.load_checkpoint(ckpt_path)
        except (tr.CorruptCheckpointError, tr.CheckpointVersionError, tr.ConfigMismatchError):
            pass


def test_a_mutated_header_fails_typed_or_saves_back_to_its_own_bytes(tmp_path):
    """3,000 seeded changes of 1-4 header bytes each: a load either raises a
    typed checkpoint error, or reads a checkpoint that saves to the same bytes."""
    blob = _checkpoint_bytes()
    n = len(_header(blob))
    rng = random.Random(0)
    path, again = tmp_path / "mutant.ckpt", tmp_path / "again.ckpt"
    loaded = 0
    for _ in range(3000):
        mutant = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            mutant[HEADER_START + rng.randrange(n)] = rng.randrange(256)
        path.write_bytes(mutant)
        try:
            ckpt = tr.load_checkpoint(path)
        except (tr.CorruptCheckpointError, tr.CheckpointVersionError):
            continue
        loaded += 1
        tr.save_checkpoint(ckpt, again)
        assert again.read_bytes() == mutant, _header(mutant)
    assert loaded < 100  # most changes break the JSON or a typed field
