"""Span tracing for the traced benchmark run, done entirely from outside ``src/``.

Public functions of the library are wrapped at module-attribute level. Every
``tinytraj`` namespace that holds the same function object is patched with
the same wrapper, so ``evaluation.featurize`` (a name imported from ``geo``)
is traced along with ``geo.featurize``; calls made through a module global
inside the library resolve to the wrapper as well. Generators (the batch
stream and the JSONL reader) get one span per item pulled.

Spans live in flat arrays in memory (name, phase, start, end, parent, run id)
and are written out once, when the run ends. While tracing is inactive the
wrappers add one attribute test per call and record nothing; ``uninstall``
puts the original functions back, and ``install`` may be called again.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


def _mm_hook(tr, args, kwargs, result):
    (m, k), (_, n) = args[0].shape, args[1].shape
    tr.count("mm_flop", 2 * m * k * n)
    tr.count("mm_bytes", 8 * (m * k + k * n + m * n))


def _backward_pre(tr, args, kwargs):
    tape = kwargs.get("tape", args[1] if len(args) > 1 else None)
    if tape is None:
        tape = args[0].tape
    tr.count("tape_nodes", len(tape))


def _forward_hook(tr, args, kwargs, result):
    tr.count("positions", args[0].shape[0])


def _apply_mask_hook(tr, args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    tr.count("scored", len(spec.positions))


def _featurize_hook(tr, args, kwargs, result):
    tr.count("featurized_points", len(args[0]))


def _write_hook(tr, args, kwargs, result):
    tr.count("written", result)


def _save_hook(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("ckpt_bytes", os.path.getsize(path))


def _batch_item_hook(tr, item):
    tr.count("batched_trajs", item.batch_size)


def _read_item_hook(tr, item):
    tr.count("read_trajs", 1)
    tr.count("read_points", len(item))


# (module, attribute, post-call hook); span name is "<module>.<attribute>"
FUNCTIONS = (
    ("autodiff", "_mm", _mm_hook),
    ("autodiff", "backward", None),
    ("autodiff", "softmax_rows", None),
    ("autodiff", "layer_norm", None),
    ("model", "forward_features", _forward_hook),
    ("model", "multi_head_attention", None),
    ("embedding", "embed_sequence", None),
    ("masking", "apply_mask", _apply_mask_hook),
    ("geo", "featurize", _featurize_hook),
    ("geo", "compute_center", None),
    ("data", "write_jsonl", _write_hook),
    ("data", "stream_jsonl", None),
    ("training", "train", None),
    ("training", "clip_gradients", None),
    ("training", "adam_step", None),
    ("training", "save_checkpoint", _save_hook),
    ("training", "load_checkpoint", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "rollout", None),
    ("cli", "main", None),
)
_PRE_HOOKS = {"autodiff.backward": _backward_pre}

# generator functions whose items each get a span: (module, attribute, span name, item hook)
GENERATORS = (
    ("data", "batchify", "data.batchify", _batch_item_hook),
    ("data", "JsonlTrajectoryReader.__iter__", "data.read", _read_item_hook),
)


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        self.run_id = 0
        self.names: dict[str, int] = {}
        self.phases: dict[str, int] = {}
        self._name = array("q")
        self._phase = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._run = array("q")
        self._stack: list[int] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: float) -> None:
        if self.active:
            self.counters[(self.phase, key)] += n

    def open(self, name: str) -> int:
        idx = len(self._start)
        self._name.append(self.names.setdefault(name, len(self.names)))
        self._phase.append(self.phases.setdefault(self.phase, len(self.phases)))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    # -- patching ----------------------------------------------------------

    def _wrap_function(self, fn, name, hook):
        pre = _PRE_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, item_hook):
        tracer = self

        def items(source):
            it = iter(source)
            while True:
                if not tracer.active:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                if item_hook is not None:
                    item_hook(tracer, item)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return items(fn(*args, **kwargs))

        return traced

    def _replace(self, original, replacement) -> None:
        """Swap ``original`` for ``replacement`` in every tinytraj namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tinytraj" or mod_name.startswith("tinytraj.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import tinytraj  # noqa: F401  (the caller put src/ on sys.path)

        self.uninstall()
        self.missing = []
        for mod_name, attr, hook in FUNCTIONS:
            mod = sys.modules.get(f"tinytraj.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._replace(fn, self._wrap_function(fn, f"{mod_name}.{attr}", hook))
        for mod_name, dotted, span_name, item_hook in GENERATORS:
            owner = sys.modules.get(f"tinytraj.{mod_name}")
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{dotted}")
                continue
            wrapped = self._wrap_generator(fn, span_name, item_hook)
            if path:  # a method: patch the class attribute
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                self._replace(fn, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as arrays of one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(sorted(self.names, key=self.names.get)),
            phases=np.array(sorted(self.phases, key=self.phases.get)),
            name=np.frombuffer(self._name, dtype=np.int64),
            phase=np.frombuffer(self._phase, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            run_id=np.frombuffer(self._run, dtype=np.int64),
        )


class SpanTotals:
    """Inclusive time, self time and call count per (phase, span name).

    A span's self time is its duration minus the durations of its direct
    children; the library runs on one thread, so children never overlap.
    """

    def __init__(self, tracer: Tracer) -> None:
        name = np.frombuffer(tracer._name, dtype=np.int64)
        phase = np.frombuffer(tracer._phase, dtype=np.int64)
        parent = np.frombuffer(tracer._parent, dtype=np.int64)
        dur = np.frombuffer(tracer._end, dtype=np.float64) - np.frombuffer(
            tracer._start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_names = max(len(tracer.names), 1)
        key = phase * n_names + name
        size = max(len(tracer.phases), 1) * n_names
        incl = np.bincount(key, weights=dur, minlength=size)
        own = np.bincount(key, weights=self_time, minlength=size)
        calls = np.bincount(key, minlength=size)
        self._incl, self._self, self._calls = {}, {}, {}
        for ph, p in tracer.phases.items():
            for nm, n in tracer.names.items():
                k = p * n_names + n
                self._incl[(ph, nm)] = float(incl[k])
                self._self[(ph, nm)] = float(own[k])
                self._calls[(ph, nm)] = int(calls[k])
        self.counters = dict(tracer.counters)

    @staticmethod
    def _sum(table, phases, name) -> float:
        return sum(v for (ph, nm), v in table.items() if nm == name and ph in phases)

    def incl(self, phases, name) -> float:
        return self._sum(self._incl, phases, name)

    def own(self, phases, name) -> float:
        return self._sum(self._self, phases, name)

    def calls(self, phases, name) -> int:
        return self._sum(self._calls, phases, name)

    def counter(self, phases, key) -> float:
        return sum(v for (ph, k), v in self.counters.items() if k == key and ph in phases)
