"""Command-line interface.

Subcommands: ``synth`` (generate a corpus), ``fit-norm`` (fit normalization
parameters), ``train``, ``eval``, ``rollout``, and ``pretext-check``.
``synth`` and ``train`` accept ``--config <path>``, a JSON object that is
either sectioned or flat.  A sectioned document names only ``synth``,
``model`` and ``train``, each holding fields of ``SyntheticConfig``,
``ModelConfig`` and ``TrainConfig``; a flat one holds only fields of the
configs the subcommand builds (``synth``: ``SyntheticConfig``; ``train``:
``ModelConfig`` and ``TrainConfig``).  A config flag's argparse ``dest`` is
its field name, and a flag overrides the document.

Exit codes: 0 success, 1 usage error (bad flags, such as a ``--val-fraction``
that leaves the validation split empty; unknown config sections, keys or
mistyped values; a size too large to allocate), 2 data error
(missing or corrupt files, among them a checkpoint whose header is not one
valid typed document, see ``training.load_checkpoint``; a file that cannot
be read or written, such as an ``--out`` that is a directory; empty corpora,
mismatched normalization frames, a non-finite or malformed normalization
file), 3 numeric failure (a non-finite training loss, gradient norm or
validation loss, after which ``train`` writes nothing; an ``eval`` or
``rollout`` prediction that is not finite in degrees and seconds, or a
generated rollout point outside the trajectory ranges, such as a time past
``MAX_T``).  A failed ``synth`` leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data as dt
from . import evaluation as ev
from . import geo, masking
from . import model as tm
from . import training as tr

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_DATA", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or invalid option values."""


class DataError(Exception):
    """Unusable input data: missing files, empty corpora, bad frames."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON; nested past the parser
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object")
    return doc


# the --config sections and the config each one holds
_SECTIONS = {"synth": dt.SyntheticConfig, "model": tm.ModelConfig, "train": tr.TrainConfig}


def _configs(args, *sections: str) -> list:
    """The configs of the named sections: ``--config`` values, then the flags.

    A flag overrides the document when its argparse ``dest`` is a field name
    of the config.  A sectioned document may name only ``synth``, ``model``
    and ``train``; a flat one may hold only fields of the configs built here.
    An entry is ``None`` when neither the document nor a flag sets a field.
    """
    doc = _load_json(args.config) if args.config else {}
    field_names = [{f.name for f in dataclasses.fields(_SECTIONS[s])} for s in sections]
    if doc.keys() & _SECTIONS.keys():
        unknown = sorted(doc.keys() - _SECTIONS.keys())
        if unknown:
            raise UsageError(f"{args.config}: unknown sections {unknown}; known: {list(_SECTIONS)}")
        parts = [doc.get(s, {}) for s in sections]
    else:
        unknown = sorted(doc.keys() - set().union(*field_names))
        if unknown:
            raise UsageError(f"{args.config}: unknown keys {unknown} for {' and '.join(sections)}")
        parts = [{k: v for k, v in doc.items() if k in names} for names in field_names]
    configs = []
    for section, names, values in zip(sections, field_names, parts):
        if not isinstance(values, dict):
            raise UsageError(f"{args.config}: section {section!r} must be a JSON object")
        flags = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
        values = {**values, **flags}
        try:
            configs.append(_SECTIONS[section].from_dict(values) if values else None)
        except ValueError as exc:
            raise UsageError(f"invalid {section} config: {exc}") from exc
    return configs


def _read_norm(path: str | Path) -> geo.NormalizationParams:
    doc = _load_json(path)
    try:
        return geo.NormalizationParams.from_dict(doc)
    except ValueError as exc:
        raise DataError(f"{path} is not a normalization file: {exc}") from exc


def _load_corpus_stream(path: str | Path) -> dt.JsonlTrajectoryReader:
    try:
        return dt.stream_jsonl(path)
    except FileNotFoundError as exc:
        raise DataError(str(exc)) from exc


def _fit_norm_from(path: str | Path) -> geo.NormalizationParams:
    reader = _load_corpus_stream(path)
    try:
        return geo.compute_center(reader)
    except ValueError as exc:  # empty corpus
        raise DataError(f"{path}: {exc}") from exc


def _load_ckpt(path: str | Path, expect_config=None) -> tr.Checkpoint:
    try:
        return tr.load_checkpoint(path, expect_config=expect_config)
    except FileNotFoundError as exc:
        raise DataError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    (cfg,) = _configs(args, "synth")
    cfg = cfg or dt.SyntheticConfig()
    with dt._replacing(args.out) as tmp:  # a failed run leaves --out as it was
        n = dt.write_jsonl(dt.generate_synthetic(cfg), tmp)
    print(f"wrote {n} trajectories to {args.out}")
    return EXIT_OK


def _cmd_fit_norm(args) -> int:
    params = _fit_norm_from(args.data)
    Path(args.out).write_text(
        json.dumps(params.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote normalization parameters to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.s_max is not None and args.s_max < 2:
        raise UsageError(f"--s-max must be >= 2, got {args.s_max}")
    model_cfg, train_cfg = _configs(args, "model", "train")
    train_cfg = train_cfg or tr.TrainConfig()

    resume_ckpt = None
    adam_state = None
    start_epoch = 0
    history = None
    if args.resume:
        # only a model config given by --config or flags must match
        resume_ckpt = _load_ckpt(args.resume, expect_config=model_cfg)
        model_cfg = resume_ckpt.model_config
        params = tr.restore_params(resume_ckpt)
        adam_state = resume_ckpt.adam
        start_epoch = resume_ckpt.rng_state.get("next_epoch", 0)
        history = resume_ckpt.history
    else:
        if model_cfg is None:
            model_cfg = tm.ModelConfig()
        params = tm.init_params(model_cfg, np.random.default_rng(train_cfg.seed))

    if args.norm:
        norm = _read_norm(args.norm)
    elif resume_ckpt is not None and resume_ckpt.norm_params is not None:
        norm = resume_ckpt.norm_params
    else:
        norm = _fit_norm_from(args.data)
    if (
        resume_ckpt is not None
        and resume_ckpt.norm_params is not None
        and not norm.approx_equal(resume_ckpt.norm_params)
    ):
        raise ev.NormalizationMismatchError(
            "--norm differs from the checkpoint's normalization parameters"
        )

    s_max = model_cfg.max_seq * model_cfg.patch_len if args.s_max is None else args.s_max
    loader = dt.BatchLoader(_load_corpus_stream(args.data), train_cfg.batch_size, s_max, norm)
    val_loader = None
    if args.val_data:
        val_loader = dt.BatchLoader(
            _load_corpus_stream(args.val_data), train_cfg.batch_size, s_max, norm
        )
    elif args.val_fraction is not None:
        train_split, val_split = dt.split(
            _load_corpus_stream(args.data), args.val_fraction, train_cfg.seed
        )
        if next(iter(val_split), None) is None:
            raise UsageError(
                f"--val-fraction {args.val_fraction} puts no trajectory of {args.data} "
                "in the validation split"
            )
        loader = dt.BatchLoader(train_split, train_cfg.batch_size, s_max, norm)
        val_loader = dt.BatchLoader(val_split, train_cfg.batch_size, s_max, norm)

    try:
        result = tr.train(
            params,
            model_cfg,
            train_cfg,
            loader,
            val_loader=val_loader,
            norm_params=norm,
            adam_state=adam_state,
            start_epoch=start_epoch,
            history=history,
        )
    except ValueError as exc:  # e.g. empty loader
        raise DataError(str(exc)) from exc
    tr.save_checkpoint(result.checkpoint, args.out)
    if args.history_csv:
        tr.write_history_csv(result.history, args.history_csv)
    train_rows = [r for r in result.history if r["split"] == "train"]
    if train_rows:
        print(
            f"trained {len(result.step_losses)} steps; "
            f"epoch loss {train_rows[0]['loss']:.6g} -> {train_rows[-1]['loss']:.6g}"
        )
    print(f"wrote checkpoint to {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.batch_size < 1:
        raise UsageError(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.mode == "infill" and not 0.0 < args.mask_ratio < 1.0:
        raise UsageError(f"--mask-ratio must lie in (0, 1), got {args.mask_ratio}")
    if args.mode == "rollout" and args.horizon < 1:
        raise UsageError(f"--horizon must be >= 1, got {args.horizon}")
    ckpt = _load_ckpt(args.ckpt)
    if ckpt.norm_params is None:
        raise DataError(f"{args.ckpt} carries no normalization parameters")
    params = tr.restore_params(ckpt)
    trajs = _load_corpus_stream(args.data)
    dataset_norm = _read_norm(args.norm) if args.norm else None
    try:
        report = ev.evaluate(
            params,
            ckpt.model_config,
            trajs,
            ckpt.norm_params,
            args.mode,
            horizon=args.horizon,
            mask_ratio=args.mask_ratio,
            seed=args.seed,
            batch_size=args.batch_size,
            dataset_norm=dataset_norm,
        )
    except ValueError as exc:  # empty/unscorable corpus
        raise DataError(str(exc)) from exc
    if args.format == "csv":
        _emit(ev.report_to_csv(report), args.out)
    else:
        _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_rollout(args) -> int:
    ckpt = _load_ckpt(args.ckpt)
    if ckpt.norm_params is None:
        raise DataError(f"{args.ckpt} carries no normalization parameters")
    params = tr.restore_params(ckpt)
    chosen = None
    for traj in _load_corpus_stream(args.data):
        if args.traj_id is None or traj.id == args.traj_id:
            chosen = traj
            break
    if chosen is None:
        wanted = f"trajectory {args.traj_id!r}" if args.traj_id else "any trajectory"
        raise DataError(f"{args.data}: {wanted} not found")
    prefix = chosen
    if args.prefix_len is not None:
        if args.prefix_len < 2 or args.prefix_len > len(chosen):
            raise UsageError(
                f"--prefix-len must lie in [2, {len(chosen)}], got {args.prefix_len}"
            )
        prefix = chosen.head(args.prefix_len)
    try:
        suffix = ev.rollout(
            params, ckpt.model_config, ckpt.norm_params, prefix, args.horizon
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = {
        "id": chosen.id,
        "prefix_len": len(prefix),
        "points": [[p.lat, p.lon, p.t] for p in suffix],
    }
    _emit(json.dumps(record), args.out)
    return EXIT_OK


def _cmd_pretext_check(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if args.max_traj is not None and args.max_traj < 1:
        raise UsageError(f"--max-traj must be >= 1, got {args.max_traj}")
    trajs = list(_load_corpus_stream(args.data))[: args.max_traj]
    if not trajs:
        raise DataError(f"{args.data}: empty corpus")
    norm = _read_norm(args.norm) if args.norm else geo.compute_center(trajs)
    seqs = [geo.featurize(t, norm).features for t in trajs]
    report = tr.pretext_autoencoder_check(
        seqs, d_latent=args.d_latent, steps=args.steps, seed=args.seed
    )
    _emit(
        json.dumps(
            {"raw_rmse": report.raw_rmse, "pe_rmse": report.pe_rmse}, sort_keys=True
        ),
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    # argparse names a flag's dest after it (--n-traj -> n_traj); a config
    # flag's dest is its config field, so --config values and flags merge by name
    parser = _Parser(prog="tinytraj", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trajectory corpus")
    p.add_argument("--config", help="JSON config (synth section or flat)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--n-traj", type=int)
    p.add_argument("--points", dest="points_per_traj", type=int, help="points per trajectory")
    p.add_argument("--waypoints", dest="n_waypoints", type=int)
    p.add_argument("--speed-min", type=float)
    p.add_argument("--speed-max", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--dt-mean", dest="dt_mean_s", type=float)
    p.add_argument("--dt-std", dest="dt_std_s", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--bbox", nargs=4, type=float, metavar=("LAT_MIN", "LON_MIN", "LAT_MAX", "LON_MAX")
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit-norm", help="fit normalization parameters to a corpus")
    p.add_argument("--data", required=True, help="JSONL corpus")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_fit_norm)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="JSON config (model/train sections or flat)")
    p.add_argument("--data", required=True, help="training JSONL corpus")
    val = p.add_mutually_exclusive_group()
    val.add_argument("--val-data", help="validation JSONL corpus")
    val.add_argument(
        "--val-fraction", type=float, help="hash-split this fraction of --data for validation"
    )
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--norm", help="normalization JSON (default: fit to --data)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--history-csv", help="write metrics CSV here")
    p.add_argument("--s-max", type=int, help="truncate trajectories")
    p.add_argument("--d-model", type=int)
    p.add_argument("--n-heads", type=int)
    p.add_argument("--n-blocks", type=int)
    p.add_argument("--max-seq", type=int)
    p.add_argument("--patch-len", type=int)
    p.add_argument("--attention-mode", choices=("causal", "bidirectional"))
    p.add_argument(
        "--rope", dest="rope_enabled", action="store_const", const=True,
        help="rotary position embedding",
    )
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--objective", choices=("next_step", "infill", "alternating"))
    p.add_argument("--mask-ratio", type=float)
    p.add_argument("--loss", choices=("mse", "huber"))
    p.add_argument("--clip-norm", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=ev.EVAL_MODES, default="next_step")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--mask-ratio", type=float, default=masking.DEFAULT_MASK_RATIO)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--batch-size", type=int, default=ev.DEFAULT_BATCH_SIZE,
        help="trajectories per forward pass; sets memory use, never the report "
        "(default %(default)s)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--norm", help="cross-check the dataset's normalization")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rollout", help="autoregressively extend a trajectory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--traj-id", help="default: first trajectory")
    p.add_argument("--prefix-len", type=int, help="use only the first N points as the prefix")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--out", help="write the predicted suffix JSON here")
    p.set_defaults(func=_cmd_rollout)

    p = sub.add_parser("pretext-check", help="autoencoder probe of the feature encoding")
    p.add_argument("--data", required=True)
    p.add_argument("--norm")
    p.add_argument("--d-latent", type=int, default=64)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-traj", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pretext_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except tr.NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        DataError,
        OSError,  # a file that cannot be read or written, such as an --out that is a directory
        tr.CorruptCheckpointError,
        tr.CheckpointVersionError,
        tr.ConfigMismatchError,
        ev.NormalizationMismatchError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, MemoryError) as exc:  # MemoryError: a size past any allocation
        print(f"usage error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
