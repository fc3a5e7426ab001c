"""A derandomized fuzz of the command line at its file boundaries.

Each example runs ``synth``, ``train``, ``train --resume``, ``eval`` or
``rollout`` in-process, with one of its ``--config``, ``--norm``,
checkpoint or JSONL files mutated: 1-4 bytes overwritten, or one JSON field
set to a drawn value.  Every run must return a documented exit code (0-3),
and no exception may escape ``cli.main``.

A drawn size is small or 2**50: past the 47-bit address space, so an
allocation of that many elements is refused at once, and ``n_blocks`` past
the model's parameter limit, which is refused before any block is built.
The other counts that drive a loop (``n_traj``, ``epochs``) are drawn small
only, and a byte overwrite turns a one-digit value into at most another
digit.
"""

import dataclasses
import functools
import json
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tinytraj import cli
from tinytraj import data as dt
from tinytraj import geo
from tinytraj import model as tm

from test_config_fuzz import HEADER_PATHS
from test_training import _rewrite_header, _set

# a mutated corpus line is skipped with a warning, which is the behavior under test
pytestmark = pytest.mark.filterwarnings("ignore::tinytraj.data.MalformedLineWarning")

SIZE = 2**50
LOOPS = {"n_traj", "epochs"}

CONFIG = {
    "synth": {"n_traj": 4, "points_per_traj": 6, "seed": 1},
    "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "max_seq": 8},
    "train": {"lr": 0.003, "epochs": 1, "batch_size": 4, "seed": 5},
}

# each command's arguments, with {file} for the file of that name, and the files it reads
COMMANDS = {
    "synth": ("synth --config {config} --out {out}", ("config",)),
    "train": (
        "train --config {config} --data {corpus} --norm {norm} --out {out}",
        ("config", "corpus", "norm"),
    ),
    "resume": (
        "train --config {config} --resume {ckpt} --epochs 2 --data {corpus} --norm {norm} "
        "--out {out}",
        ("config", "ckpt", "corpus", "norm"),
    ),
    "eval": ("eval --ckpt {ckpt} --data {corpus} --norm {norm}", ("ckpt", "corpus", "norm")),
    "rollout": ("rollout --ckpt {ckpt} --data {corpus} --horizon 2 --out {out}", ("ckpt", "corpus")),
}

# the JSON fields a drawn value may replace, per file
FIELDS = {
    "config": [("bogus",)]
    + [
        (section, name)
        for section, cls in cli._SECTIONS.items()
        for name in [f.name for f in dataclasses.fields(cls)] + ["bogus"]
    ],
    "norm": [(f.name,) for f in dataclasses.fields(geo.NormalizationParams)] + [("bogus",)],
    "corpus": [("id",), ("points",), ("points", 0), ("points", 1, 0), ("points", 2, 2), ("bogus",)],
}


@functools.cache
def _inputs() -> dict[str, bytes]:
    """The files before mutation: a sectioned config, a corpus, its
    normalization file and a checkpoint trained on them."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("config", "corpus", "norm", "ckpt")}
        paths["config"].write_text(json.dumps(CONFIG))
        dt.write_jsonl(
            dt.generate_synthetic(dt.SyntheticConfig(n_traj=6, points_per_traj=6, seed=3)),
            paths["corpus"],
        )
        argv = [
            ["fit-norm", "--data", paths["corpus"], "--out", paths["norm"]],
            ["train", "--config", paths["config"], "--data", paths["corpus"],
             "--norm", paths["norm"], "--out", paths["ckpt"]],
        ]
        for args in argv:
            assert cli.main([str(a) for a in args]) == cli.EXIT_OK
        return {name: path.read_bytes() for name, path in paths.items()}


def _int_fields(cls) -> list[str]:
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if hints[f.name] in (int, int | None)]


# the fields a drawn size may replace: the integers of the config and the
# checkpoint header, and any field of the other files
SIZED = {
    **FIELDS,
    "config": [(s, n) for s, cls in cli._SECTIONS.items() for n in _int_fields(cls)],
    "ckpt": [("model_config", n) for n in _int_fields(tm.ModelConfig)]
    + [("adam_step",), ("rng_state", "seed"), ("rng_state", "next_epoch"), ("history", 0, "epoch")],
}

# the values of a field edit, sizes aside
OTHERS = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=3)
    | st.lists(st.integers(-2, 9) | st.floats(-100.0, 100.0), max_size=4)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2)
)


def _overwrite(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for at, byte in edits:
        out[at] = byte
    return bytes(out)


def _edit_json(blob: bytes, path, value) -> bytes:
    return json.dumps(_set(path, value)(json.loads(blob))).encode()


def _edit_line(blob: bytes, line: int, path, value) -> bytes:
    lines = blob.decode().splitlines()
    lines[line % len(lines)] = _edit_json(lines[line % len(lines)].encode(), path, value).decode()
    return "\n".join(lines).encode() + b"\n"


@st.composite
def _mutated(draw, name: str, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["bytes", "size", "value"]))
    if kind == "bytes":
        edits = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
        return _overwrite(blob, draw(st.lists(edits, min_size=1, max_size=4)))
    paths = SIZED if kind == "size" else {**FIELDS, "ckpt": HEADER_PATHS}
    path = draw(st.sampled_from(paths[name]))
    small = [-1, 0, 1, 2, 3, 9]
    sizes = st.sampled_from(small if path[-1] in LOOPS else [*small, SIZE])
    value = draw(sizes if kind == "size" else OTHERS)
    if name == "ckpt":
        return _rewrite_header(blob, _set(path, value))
    if name == "corpus":
        return _edit_line(blob, draw(st.integers(0, 5)), path, value)
    return _edit_json(blob, path, value)


def _run(command: str, changed: dict[str, bytes]) -> int:
    """``cli.main`` on ``command`` over the unmutated files, ``changed`` replacing some."""
    argv, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": Path(tmp) / "out"}
        for name, blob in {**_inputs(), **changed}.items():
            paths[name] = Path(tmp) / name
            paths[name].write_bytes(blob)
        return cli.main(argv.format(**paths).split())


EXIT_CODES = (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC)


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_every_mutated_input_ends_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    name = data.draw(st.sampled_from(COMMANDS[command][1]))
    assert _run(command, {name: data.draw(_mutated(name, _inputs()[name]))}) in EXIT_CODES


@pytest.mark.parametrize(
    "command, name, path",
    [
        (command, name, path)
        for command, (_, reads) in COMMANDS.items()
        for name in ("config", "ckpt") if name in reads
        for path in SIZED[name]
        if path[-1] not in LOOPS
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_every_size_past_any_allocation_ends_in_a_documented_exit_code(command, name, path):
    blob = _inputs()[name]
    edit = _rewrite_header(blob, _set(path, SIZE)) if name == "ckpt" else _edit_json(blob, path, SIZE)
    assert _run(command, {name: edit}) in EXIT_CODES
