"""Property tests of the JSONL boundary: whatever JSON value a line holds, the
reader either yields a trajectory that meets every invariant or skips the line
with a warning, and never raises.  The reader checks a chunk of lines as one
set of columns; whatever sits on either side of a chunk edge, it yields and
skips exactly what the per-line path (``trajectory_from_record`` on each line)
does, with the same column bits and the same warnings in the same order.
Every property holds twice: with the compiled chunk parser, where this host
builds it, and without it (``data._parsing``), when the reader reads every
line by the per-line path itself."""

import ctypes
import itertools
import json
import re
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tinytraj import _kernel, data, geo

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


# plain-record shape edge cases, run as explicit examples: which examples
# hypothesis draws depends on the modules loaded, so a run of this file alone
# could otherwise miss them
EDGE_RECORDS = [
    {"id": "empty", "points": [[], []]},
    {"id": "one", "points": [[52.5, 13.4, 0]]},
    {"id": "pairs", "points": [[52.5, 13.4], [52.6, 13.5]]},
    {"id": "fours", "points": [[52.5, 13.4, 0, 1], [52.6, 13.5, 60, 1]]},
    {"id": "", "points": [[52.5, 13.4, 0], [52.6, 13.5, 60]]},
]


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(lines, min_size=1, max_size=4))
@example(EDGE_RECORDS)
def test_reader_yields_valid_trajectories_or_skips(values):
    for compiled in (True, False):
        _reads_valid_trajectories_or_skips(values, compiled)


def _reads_valid_trajectories_or_skips(values, compiled):
    with tempfile.TemporaryDirectory() as tmp, data._parsing(compiled):
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


# ---------------------------------------------------------------------------
# the chunked reader against the per-line path
# ---------------------------------------------------------------------------

CHUNK = data._CHUNK_LINES
# a bool or a str, which the per-line path rejects, or a number int64 or float64 may not hold
odd_values = (
    st.booleans()
    | st.sampled_from(["1", "-0.5", " 7 ", "nan", "1e400", ""])
    | st.integers(-(2**70), 2**70)
    | st.just(10**400)
    | st.floats()
)


def _with_one_odd_value(points):
    def put(where):
        i, j, value = where
        return [[value if (i, j) == (a, b) else v for b, v in enumerate(p)] for a, p in enumerate(points)]

    return st.tuples(st.integers(0, len(points) - 1), st.integers(0, 2), odd_values).map(put)


ids = st.text(ALPHABET, max_size=4)
valid_records = st.fixed_dictionaries({"id": ids, "points": valid_points})
odd_records = st.fixed_dictionaries({"id": ids, "points": valid_points.flatmap(_with_one_odd_value)})
# a valid record, one with one odd value, a near miss, any JSON value, or a blank line
file_lines = (valid_records | odd_records | records | json_values).map(json.dumps) | st.just("")


def _per_line(path: Path):
    """(trajectories, warning texts) of the per-line path over ``path``."""
    trajs, texts = [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                trajs.append(data.trajectory_from_record(json.loads(line.decode("utf-8"))))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                texts.append(f"{path}:{lineno}: skipping malformed trajectory ({exc})")
    return trajs, texts


def _read(path: Path, compiled: bool = True):
    with data._parsing(compiled):
        reader = data.stream_jsonl(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trajs = list(reader)
    assert all(issubclass(w.category, data.MalformedLineWarning) for w in caught)
    texts = [str(w.message) for w in caught]
    assert reader.skipped == len(texts)
    return trajs, texts


def _columns(traj):
    return traj.id, [(c.dtype.str, c.tobytes()) for c in (traj.lat, traj.lon, traj.t)]


def assert_reads_like_per_line(path: Path):
    """The reader, with the compiled parser and without it, reads ``path``
    as the per-line path does; returns the trajectories."""
    want_trajs, want_texts = _per_line(path)
    for compiled in (True, False):
        trajs, texts = _read(path, compiled)
        assert texts == want_texts  # same lines, same messages, same order
        assert list(map(_columns, trajs)) == list(map(_columns, want_trajs))
    return trajs


def _write(tmp, lines) -> Path:
    path = Path(tmp) / "chunks.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _good(i: int, n: int = 3) -> dict:
    return {"id": f"g{i}", "points": [[50.0 + 0.1 * i, 10.0 + j, 60 * j + i] for j in range(n)]}


def _line(traj_id: str, *points: str, head: str = '"id": "{}", "points": [{}]') -> str:
    return "{" + head.format(traj_id, ", ".join(points)) + "}"


# lines as the compiled parser meets them, not as json.dumps writes them:
# numbers it reads itself, numbers and ids it declines, keys in any order,
# and whitespace; the per-line path is the oracle for each
RAW_LINES = [
    _line("zero", "[-0, -0.0, 0]", "[-0.0, -0, 1]"),
    _line("huge", "[1e400, 13.0, 0]", "[52.0, 13.0, 1]"),  # latitude inf: skipped
    _line("tiny", "[-1e-400, 5e-324, 0]", "[1e1, -1e-400, 1]"),
    _line("1E5", "[52.0, 1E5, 0]", "[52.0, 1e+2, 1]"),  # longitude 100000.0: skipped
    _line(
        "17",  # 17 significant digits
        "[0.30000000000000004, 13.123456789012345, 5]",
        "[52.999999999999993, -179.99999999999997, 6]",
    ),
    _line("t19", "[52.0, 13.0, 1000000000000000000]", "[52.0, 13.0, 1000000000000000001]"),
    _line("t18", "[52.0, 13.0, 999999999999999998]", "[52.0, 13.0, 999999999999999999]"),
    _line("t1e3", "[52.0, 13.0, 1e3]", "[52.0, 13.0, 2000]"),  # a float time: skipped
    _line("ints", "[52, 13, 0]", "[-90, 180, 1]", "[90, -180, 2]"),
    _line("int100", "[100, 13, 0]", "[52, 13, 1]"),  # prints 100, not 100.0
    _line("int16", "[1234567890123456, 13, 0]", "[52, 13, 1]"),
    _line("swapped", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]", head='"points": [{1}], "id": "{0}"'),
    _line("dup", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]", head='"id": "{0}", "id": "2", "points": [{1}]'),
    _line("extra", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]", head='"id": "{0}", "points": [{1}], "x": 0'),
    _line("\\u00e9sc\\\"q", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]"),  # escaped
    _line("\u00e9", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]"),  # non-ASCII
    _line("\U0001f600", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]"),  # astral
    _line("tab\there", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]"),  # a raw control byte: not JSON
    _line("nan", "[NaN, 13.0, 0]", "[52.5, 13.5, 1]"),
    _line("inf", "[52.0, Infinity, 0]", "[52.5, -Infinity, 1]"),
    '\t{"id":\t"tabs",\t"points":[[52.0,\t13.0,0],\r[52.5,13.5,1]]}\t\r',  # and CRLF
    "\x0c",  # bytes.strip() makes it blank; JSON does not
    "\x0c" + json.dumps(_good(7)),
    _line("one", "[52.0, 13.0, 0]"),
    _line("", "[52.0, 13.0, 0]", "[52.5, 13.5, 1]"),
]


# no shrink phase: the same examples run, but a failure reports in seconds
# instead of minutes spent minimizing a file of up to 49 lines
@settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(
    st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1]).flatmap(
        lambda n: st.lists(file_lines, min_size=n, max_size=n)
    )
)
@example([json.dumps(r) for r in EDGE_RECORDS])
# each edge case among valid records, on both sides of a chunk edge
@example([json.dumps(_good(n) if n % 4 else EDGE_RECORDS[n // 4 % 5]) for n in range(3 * CHUNK + 1)])
@example(RAW_LINES)
@example([line if n % 2 else json.dumps(_good(n)) for n, line in enumerate(RAW_LINES * 2)])
def test_chunked_reader_matches_per_line_path(lines):
    with tempfile.TemporaryDirectory() as tmp:
        assert_reads_like_per_line(_write(tmp, lines))


@pytest.mark.parametrize("bad_line", ["{not json", json.dumps({"id": "short", "points": [[1, 2, 3]]})])
def test_bad_line_on_either_edge_of_a_chunk(tmp_path, bad_line):
    edges = {1, CHUNK, CHUNK + 1, 2 * CHUNK}  # first and last line of two chunks
    lines = [bad_line if n in edges else json.dumps(_good(n)) for n in range(1, 2 * CHUNK + 1)]
    trajs = assert_reads_like_per_line(_write(tmp_path, lines))
    assert [t.id for t in trajs] == [f"g{n}" for n in range(1, 2 * CHUNK + 1) if n not in edges]


@pytest.mark.parametrize(
    "where, value",
    [
        ((0, 0), True),  # a bool latitude: the per-line path skips the line
        ((1, 2), True),  # a bool time: skipped
        ((1, 1), "13.5"),  # a str coordinate: skipped
        ((1, 2), "60"),  # a str time: skipped
        ((0, 0), 10**400),  # an int no float holds
        ((1, 2), 10**400),  # an int no int64 holds
    ],
)
def test_one_odd_value_falls_back_without_changing_its_neighbours(tmp_path, where, value):
    odd = _good(99)
    odd["points"][where[0]][where[1]] = value
    lines = [json.dumps(_good(n)) for n in range(CHUNK)]
    lines[CHUNK // 2] = json.dumps(odd)
    trajs = assert_reads_like_per_line(_write(tmp_path, lines))
    assert [t.id for t in trajs if t.id != "g99"] == [f"g{n}" for n in range(CHUNK) if n != CHUNK // 2]


def test_yielded_columns_are_read_only(tmp_path):
    path = _write(tmp_path, [json.dumps(_good(n)) for n in range(CHUNK + 2)])
    for traj in data.stream_jsonl(path):
        for col in (traj.lat, traj.lon, traj.t):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1


def test_trajectories_of_a_chunk_outlive_the_chunk(tmp_path):
    path = _write(tmp_path, [json.dumps(_good(n, n % 5 + 2)) for n in range(4 * CHUNK)])
    it = iter(data.stream_jsonl(path))
    kept = list(itertools.islice(it, CHUNK))  # the whole first chunk
    snapshot = list(map(_columns, kept))
    rest = list(it)  # the reader moves on through three more chunks
    assert len(rest) == 3 * CHUNK
    assert list(map(_columns, kept)) == snapshot
    assert kept + rest == _per_line(path)[0]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "json"])
def test_each_line_is_parsed_once(tmp_path, monkeypatch, compiled):
    out_of_range = _good(90)
    out_of_range["points"][1][0] = 91.0  # plain shape, so only the chunk check rejects it
    str_coordinate = _good(91)
    str_coordinate["points"][0][1] = "13.5"  # plain shape, rejected: not a number
    lines = [json.dumps(_good(n)) for n in range(CHUNK + 3)]
    lines[2] = "{not json"
    lines[5] = json.dumps(out_of_range)
    lines[CHUNK + 1] = json.dumps(str_coordinate)
    lines[CHUNK + 2] = json.dumps({"id": "short", "points": [[1, 2, 3]]})
    path = _write(tmp_path, lines)
    with data._parsing(compiled):
        reader = data.stream_jsonl(path)  # the parser's load check parses too
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: calls.append(s) or loads(s, *a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", data.MalformedLineWarning)
        ids = [t.id for t in reader]
    assert "g90" not in ids and "g91" not in ids
    parsed = range(len(lines))
    if compiled and data._parser() is not None:
        # the lines the compiled parser declines, and the one whose record
        # the check rejects, read again for its message
        parsed = (2, 5, CHUNK + 1, CHUNK + 2)
    assert calls == [lines[i] + "\n" for i in parsed]  # each once, in order
    assert_reads_like_per_line(path)


# ---------------------------------------------------------------------------
# the compiled parser's load check, and the byte-order mark
# ---------------------------------------------------------------------------


def _mutant(change):
    # a parser that gives the real one's results, changed by ``change``
    real = _kernel.chunk_parser

    def chunk_parser(lib):
        parse = real(lib)
        return lambda lines: change(*parse(lines))

    return chunk_parser


def _one_ulp_up(taken, columns):
    lat = columns[0].copy()
    lat[-1] = np.nextafter(lat[-1], np.inf)
    return taken, (lat, *columns[1:])


def _signed_zeros(taken, columns):  # -0 read as -0.0, as through a float
    return taken, (np.where(columns[0] == 0, -0.0, columns[0]), *columns[1:])


def _takes_declined_lines(taken, columns):
    return [rec or ("", 1) for rec in taken], columns


@pytest.mark.parametrize(
    "break_step",
    [
        lambda mp: mp.setattr(_kernel, "parser_agrees", lambda parse: False),
        lambda mp: mp.setattr(_kernel, "compile_kernel", lambda: Path("/nonexistent/kernel.so")),
        lambda mp: mp.setattr(_kernel, "chunk_parser", _mutant(_one_ulp_up)),
        lambda mp: mp.setattr(_kernel, "chunk_parser", _mutant(_signed_zeros)),
        lambda mp: mp.setattr(_kernel, "chunk_parser", _mutant(_takes_declined_lines)),
    ],
    ids=["check_fails", "no_library", "one_ulp_up", "signed_zeros", "takes_declined_lines"],
)
def test_a_parser_that_fails_its_load_check_is_not_used(tmp_path, monkeypatch, break_step):
    monkeypatch.setattr(data, "_parse", None)  # choose again at the next reader
    break_step(monkeypatch)
    path = _write(tmp_path, RAW_LINES + [json.dumps(_good(n)) for n in range(CHUNK)])
    assert data.stream_jsonl(path)._parse is None and data._parser() is None
    assert_reads_like_per_line(path)


def _parse_in(buf: np.ndarray, size: int):
    # the C pass itself on the first ``size`` bytes of ``buf``, as one line
    fn = _kernel._library()["tinytraj_parse_chunk"]  # a function object of its own
    ptr, ssize = ctypes.c_void_p, ctypes.c_ssize_t
    fn.argtypes, fn.restype = [ptr, ssize, ssize, ptr, ptr, ptr, ptr, ssize], ssize
    meta = np.zeros((1, 3), np.intp)
    cols = np.empty(size // 8), np.empty(size // 8), np.empty(size // 8, np.int64)
    n = fn(buf.ctypes.data, size, 1, meta.ctypes.data, *(c.ctypes.data for c in cols), size // 8)
    return meta.tolist(), [c[:n].tobytes() for c in cols]


def test_the_compiled_parser_reads_no_byte_past_its_buffer():
    # each line of the load check, cut after each of its bytes, alone in a
    # buffer of its exact size (no NUL after it, unlike a bytes object's):
    # the pass gives what it gives on the same bytes with digits after them,
    # and under AddressSanitizer a read past the end is reported.  The C pass
    # itself, whether or not it passed its load check
    try:
        _kernel._library()
    except (OSError, RuntimeError, subprocess.SubprocessError):
        pytest.skip("no compiled kernel on this host")
    for _, line in _kernel.PARSE_CASES:
        for end in range(1, len(line) + 1):
            exact = np.frombuffer(line[:end], np.uint8).copy()
            room = np.frombuffer(line[:end] + b"0123456789", np.uint8).copy()
            assert _parse_in(exact, end) == _parse_in(room, end), line[:end]


BOM = "\ufeff"


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "json"])
def test_a_byte_order_mark_opening_the_file_is_ignored(tmp_path, compiled):
    lines = [json.dumps(_good(n)) for n in range(CHUNK + 1)]
    plain = _write(tmp_path, lines)
    marked = tmp_path / "marked.jsonl"
    marked.write_text(BOM + plain.read_text(encoding="utf-8"), encoding="utf-8")
    trajs, texts = _read(marked, compiled)
    assert texts == [] and list(map(_columns, trajs)) == list(map(_columns, _per_line(plain)[0]))


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "json"])
def test_a_byte_order_mark_on_a_later_line_is_malformed(tmp_path, compiled):
    lines = [json.dumps(_good(n)) for n in range(CHUNK + 1)]
    lines[1] = BOM + lines[1]
    lines[CHUNK] = BOM + lines[CHUNK]
    path = _write(tmp_path, lines)
    trajs, texts = _read(path, compiled)
    assert len(texts) == 2 and all("BOM" in text for text in texts)
    assert [t.id for t in trajs] == [f"g{n}" for n in range(CHUNK + 1) if n not in (1, CHUNK)]
    assert_reads_like_per_line(path)
