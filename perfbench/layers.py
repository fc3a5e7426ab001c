"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every metric is computed from span totals (inclusive time, self time, call
counts) and counters, restricted to the phases of a round where it applies.
A metric whose layer or phase a workload never reaches reads 0 with 0
samples on that workload. Times of ops that run inside ``backward`` (every
VJP) count toward ``autodiff.backward``, not toward the forward op.
"""

from __future__ import annotations

TRAIN = ("train",)
ROLLOUT = ("rollout",)
INFILL = ("infill",)
EVAL = ("rollout", "infill")
FIT = ("fit",)
WORK = ("train", "rollout", "infill", "write", "fit", "ingest")
ALL = ("setup",) + WORK


def _per(total, n):
    return (total / n if n else 0.0), int(n)


def _steps(t):
    return t.counter(TRAIN, "steps")


def _generated(t):
    return t.counter(ROLLOUT, "generated")


def _ms_per_step(name):
    return lambda t: _per(1e3 * t.incl(TRAIN, name), _steps(t))


def _ms_per_traj_step(name):
    return lambda t: _per(1e3 * t.incl(ROLLOUT, name), _generated(t))


STEP = "op_ms_p50 on train"
ROLL = "op_ms_p50 and traj_per_s on eval"
ROLL90 = "op_ms_p50 and op_ms_p90 on eval"
INF = "traj_per_s on eval (infill share)"
ING = "traj_per_s and op_ms_p50 on ingest"
FITS = "traj_per_s on ingest (fit-norm share)"

# name, unit, better, end-to-end metric it should move, compute(totals) -> (value, samples)
PER_LAYER = (
    ("autodiff.tape_nodes_per_step", "count", "lower", STEP,
     lambda t: _per(t.counter(TRAIN, "tape_nodes"), _steps(t))),
    ("autodiff.backward_ms_per_step", "ms", "lower", STEP, _ms_per_step("autodiff.backward")),
    ("autodiff.matmul_calls_per_step", "count", "lower", STEP,
     lambda t: _per(t.calls(TRAIN, "autodiff._mm"), _steps(t))),
    ("autodiff.matmul_ms_per_step", "ms", "lower", STEP, _ms_per_step("autodiff._mm")),
    ("autodiff.softmax_ms_per_step", "ms", "lower", STEP, _ms_per_step("autodiff.softmax_rows")),
    ("autodiff.layer_norm_ms_per_step", "ms", "lower", STEP, _ms_per_step("autodiff.layer_norm")),
    ("autodiff.matmul_mflop_per_step", "MFLOP", "lower", STEP + " (computed from shapes)",
     lambda t: _per(t.counter(TRAIN, "mm_flop") / 1e6, _steps(t))),
    ("autodiff.matmul_mb_per_step", "MB", "lower", STEP + " (computed from shapes)",
     lambda t: _per(t.counter(TRAIN, "mm_bytes") / 1e6, _steps(t))),
    ("autodiff.matmul_ms_per_traj_step", "ms", "lower", ROLL, _ms_per_traj_step("autodiff._mm")),
    ("model.forward_calls_per_step", "count", "lower", STEP,
     lambda t: _per(t.calls(TRAIN, "model.forward_features"), _steps(t))),
    ("model.forward_ms_per_step", "ms", "lower", STEP, _ms_per_step("model.forward_features")),
    ("model.attention_ms_per_step", "ms", "lower", STEP,
     _ms_per_step("model.multi_head_attention")),
    ("model.forward_ms_per_traj_step", "ms", "lower", ROLL,
     _ms_per_traj_step("model.forward_features")),
    ("model.positions_per_generated_point", "ratio", "lower", ROLL90,
     lambda t: _per(t.counter(ROLLOUT, "positions"), _generated(t))),
    ("embedding.embed_ms_per_step", "ms", "lower", STEP, _ms_per_step("embedding.embed_sequence")),
    ("embedding.embed_ms_per_traj_step", "ms", "lower", ROLL,
     _ms_per_traj_step("embedding.embed_sequence")),
    ("masking.apply_mask_ms_per_traj", "ms", "lower", INF,
     lambda t: _per(1e3 * t.incl(INFILL, "masking.apply_mask"), t.counter(INFILL, "trajs"))),
    ("masking.scored_frac", "ratio", "higher", INF,
     lambda t: _per(t.counter(INFILL, "scored"), t.counter(INFILL, "positions"))),
    ("geo.featurized_points_per_generated_point", "ratio", "lower", ROLL,
     lambda t: _per(t.counter(ROLLOUT, "featurized_points"), _generated(t))),
    ("geo.featurize_us_per_point", "us", "lower", ING,
     lambda t: _per(1e6 * t.incl(WORK, "geo.featurize"), t.counter(WORK, "featurized_points"))),
    ("geo.compute_center_us_per_point", "us", "lower", FITS,
     lambda t: _per(1e6 * t.own(FIT, "geo.compute_center"), t.counter(FIT, "read_points"))),
    ("data.batch_wait_ms_per_step", "ms", "lower", STEP, _ms_per_step("data.batchify")),
    ("data.read_us_per_traj", "us", "lower", ING + "; " + FITS,
     lambda t: _per(1e6 * t.incl(WORK, "data.read"), t.counter(WORK, "read_trajs"))),
    ("data.batchify_self_us_per_traj", "us", "lower", ING,
     lambda t: _per(1e6 * t.own(WORK, "data.batchify"), t.counter(WORK, "batched_trajs"))),
    ("data.write_us_per_traj", "us", "lower", "traj_per_s on ingest (write share)",
     lambda t: _per(1e6 * t.incl(WORK, "data.write_jsonl"), t.counter(WORK, "written"))),
    ("data.lines_skipped", "count", "lower", "failed on ingest (must equal the injected count)",
     lambda t: _per(t.counter(WORK, "lines_skipped"), t.counter(WORK, "passes"))),
    ("training.optimizer_ms_per_step", "ms", "lower", STEP,
     lambda t: _per(
         1e3 * (t.incl(TRAIN, "training.clip_gradients") + t.incl(TRAIN, "training.adam_step")),
         _steps(t),
     )),
    ("training.ckpt_bytes", "count", "lower", "none (checked only)",
     lambda t: _per(t.counter(ALL, "ckpt_bytes"), t.calls(ALL, "training.save_checkpoint"))),
    ("training.ckpt_load_ms", "ms", "lower", "setup_s on eval",
     lambda t: _per(1e3 * t.incl(ALL, "training.load_checkpoint"),
                    t.calls(ALL, "training.load_checkpoint"))),
    ("evaluation.rollout_ms_per_traj", "ms", "lower", ROLL90,
     lambda t: _per(1e3 * t.incl(ROLLOUT, "evaluation.rollout"), t.counter(ROLLOUT, "trajs"))),
    ("evaluation.score_self_ms_per_traj", "ms", "lower", "op_ms_p50 and traj_per_s on eval",
     lambda t: _per(1e3 * t.own(EVAL, "evaluation.evaluate"), t.counter(EVAL, "trajs"))),
    ("cli.fit_norm_self_ms", "ms", "lower", FITS,
     lambda t: _per(1e3 * t.own(FIT, "cli.main"), t.calls(FIT, "cli.main"))),
)

# reported by the runner from round walls, not from spans
OVERHEAD = ("trace.overhead_frac", "ratio", "lower", "none (traced over untraced median op time, minus 1)")


def compute(totals) -> dict[str, tuple[float, int]]:
    return {name: fn(totals) for name, _, _, _, fn in PER_LAYER}
