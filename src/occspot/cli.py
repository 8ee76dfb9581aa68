"""The `occspot` command line: reproducible pipeline orchestration.

Subcommands: gen-scenes, make-occ, resample, balance-weights, pretrain,
finetune, eval-miou, theory-check.  Every run writes outputs atomically and
drops a JSON run manifest (config hash, seed, versions) next to them, so an
artifact can be regenerated bit-exactly from its manifest.  The manifest is
written last, and an earlier run's is deleted before its outputs are
overwritten, so a manifest never vouches for an output it did not describe.

Exit codes: 0 success, 2 config or usage error (including a checkpoint
whose architecture disagrees with the config, more scene objects than the
arena can place, an arena too small for one object's footprint, a
``finetune --labels`` below 1 and a seed, from
``--seed`` or the config, outside 0..2**64-1), 3 data error (a non-finite
checkpoint too), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
# numpy loads these lazily, at the first seeded generator and the first
# np.unique; importing them here loads them with the package, not inside
# whichever command first needs them
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import __version__, theory
from .augment import ResampleFactor, beam_resample
from .balance import sampling_weights
from .cloud import FieldError
from .config import ConfigError, PipelineConfig, load_config
from .formats import (atomic_write_text, read_frame, read_labels, write_frame,
                      write_grid, write_labels)
from .learn import NumericalError, evaluate, load_model, save_model, train
from .pipeline import (build_samples, generate_dataset, load_sequence,
                       sequence_occupancy)
from .seeding import MAX_SEED, substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(RuntimeError):
    pass


#: glibc ``mallopt`` parameter numbers (``malloc.h``)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MIB = 1 << 20


def _reuse_freed_memory() -> None:
    """Have the C allocator keep freed blocks for reuse.

    A command frees large arrays and then allocates as much again: one
    sequence after another, one batch after another.  glibc's defaults hand
    a freed block back to the kernel (``munmap``, or a trim of the heap
    top), so the next allocation faults its pages in, zeroed, once more.
    Pinned thresholds keep blocks under 32 MiB (glibc's largest dynamic
    threshold) on the heap and leave up to 256 MiB free at its top, so the
    same pages are reused; the peak stays that of the largest live set.  A
    no-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 * _MIB)
    mallopt(_M_TRIM_THRESHOLD, 256 * _MIB)


def _config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()


def _write_manifest(path, command: str, cfg: PipelineConfig | None,
                    seed: int | None, outputs: list[str],
                    extra: dict | None = None) -> None:
    doc = {
        "command": command,
        "seed": seed,
        "config_sha256": _config_hash(cfg) if cfg else None,
        "config": cfg.to_json_dict() if cfg else None,
        "outputs": outputs,
        "versions": {
            "occspot": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    if extra:
        doc.update(extra)
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _unlinked_manifest(out: Path) -> Path:
    """``<out>.manifest.json``, deleted: a run that dies between writing
    `out` and its manifest must not leave an earlier manifest vouching for
    the new artifact."""
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    manifest.unlink(missing_ok=True)
    return manifest


def _load_dataset_dirs(data_dir: Path) -> list[Path]:
    """The sequence directories listed in the `gen-scenes` manifest.

    The manifest is written last, so a tree without one is incomplete; and
    only listed directories count, so stale ones from an earlier, larger run
    into the same directory are never loaded, nor any outside `data_dir`.
    Each is listed once: a repeat would train on the same sequence twice.
    """
    manifest = data_dir / "manifest.json"
    try:
        outputs = json.loads(manifest.read_text())["outputs"]
    except FileNotFoundError as exc:
        raise DataError(f"{manifest}: not found; not a finished gen-scenes "
                        "directory") from exc
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError,
            TypeError) as exc:
        raise DataError(f"{manifest}: unreadable manifest: {exc}") from exc
    if (not isinstance(outputs, list) or not outputs
            or not all(isinstance(n, str) and Path(n).name == n
                       and n not in ("", ".", "..") for n in outputs)):
        raise DataError(f"{manifest}: 'outputs' must be a non-empty list of "
                        f"sequence names, each a directory in {data_dir}")
    repeated = sorted({n for n in outputs if outputs.count(n) > 1})
    if repeated:
        raise DataError(f"{manifest}: sequences listed more than once: "
                        f"{repeated}")
    dirs = [data_dir / name for name in outputs]
    missing = [d.name for d in dirs if not d.is_dir()]
    if missing:
        raise DataError(f"{manifest}: listed sequences missing: {missing}")
    return dirs


# -- subcommand bodies --------------------------------------------------------

def cmd_gen_scenes(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out)
    # an earlier run's manifest must not vouch for a tree this run rewrites
    (out / "manifest.json").unlink(missing_ok=True)
    try:
        seq_dirs = generate_dataset(cfg, out, seed)
    except FieldError as exc:  # an arena too small for the objects
        raise ConfigError(f"scene.{exc.field}: {exc.why}") from exc
    _write_manifest(out / "manifest.json", "gen-scenes", cfg, seed,
                    [d.name for d in seq_dirs])
    print(f"wrote {len(seq_dirs)} sequences to {out}")
    return EXIT_OK


def cmd_make_occ(args) -> int:
    cfg = load_config(args.config)
    seq = load_sequence(args.sequence_dir)
    grid = sequence_occupancy(seq, cfg)
    out = Path(args.out)
    manifest = _unlinked_manifest(out)
    write_grid(out, grid)
    _write_manifest(manifest, "make-occ", cfg, cfg.seed, [out.name],
                    {"sequence_dir": str(args.sequence_dir),
                     "occupied_cells": grid.occupied_count})
    print(f"wrote {out} ({grid.occupied_count} occupied cells)")
    return EXIT_OK


def cmd_resample(args) -> int:
    if not 0.0 < args.factor <= 1.0:
        raise ConfigError(f"--factor must lie in (0, 1], got {args.factor}")
    src = Path(args.input)
    cloud = read_frame(src)
    labels_path = src.with_suffix(".sptl")
    labelled = labels_path.exists()
    labels = read_labels(labels_path) if labelled else \
        np.zeros(len(cloud), dtype=np.int64)
    if len(labels) != len(cloud):
        raise DataError(f"{labels_path}: {len(labels)} labels for the "
                        f"{len(cloud)} points of {src}")
    out_cloud, out_labels = beam_resample(cloud, labels,
                                          ResampleFactor(args.factor), args.seed)
    out = Path(args.output)
    out_labels_path = out.with_suffix(".sptl")
    manifest = _unlinked_manifest(out)
    # an older run's labels must not pass for this frame's
    out_labels_path.unlink(missing_ok=True)
    write_frame(out, out_cloud)
    outputs = [out.name]
    if labelled:
        write_labels(out_labels_path, out_labels)
        outputs.append(out_labels_path.name)
    _write_manifest(manifest, "resample", None, args.seed, outputs,
                    {"factor": args.factor, "input": str(src),
                     "points_in": len(cloud), "points_out": len(out_cloud)})
    print(f"kept {len(out_cloud)}/{len(cloud)} points -> {out}")
    return EXIT_OK


def _frame_counts(frame, path: str) -> dict[int, int]:
    """One stats frame, ``{"<class id>": count}``.  Keys are canonical
    decimal integers and counts JSON integers, so nothing is coerced and no
    two keys merge."""
    if not isinstance(frame, dict):
        raise ValueError(f"{path}: expected an object, got {frame!r:.40}")
    for key, n in frame.items():
        if not (key.isascii() and key.isdigit() and str(int(key)) == key):
            raise ValueError(f"{path}: key {key!r} is not a class id")
        if type(n) is not int:
            raise ValueError(f"{path}.{key}: expected int, got {n!r:.40}")
    return {int(k): n for k, n in frame.items()}


def cmd_balance_weights(args) -> int:
    try:
        doc = json.loads(Path(args.stats).read_text())
        w = sampling_weights([_frame_counts(fr, f"frames[{i}]")
                              for i, fr in enumerate(doc["frames"])])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{args.stats}: bad stats document: {exc!r}") from exc
    except ValueError as exc:  # JSON syntax, or a frame or its counts
        raise DataError(f"{args.stats}: bad stats document: {exc}") from exc
    print(json.dumps({"class_ids": list(w), "s": list(w.values())}, indent=2))
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    seq_dirs = _load_dataset_dirs(Path(args.data))
    pillars, labels = build_samples(map(load_sequence, seq_dirs), cfg, seed)
    params, trace = train(None, pillars, labels, cfg, seed)
    out = Path(args.out)
    manifest = _unlinked_manifest(out)
    save_model(out, params, cfg, seed, extra={"loss_trace": trace})
    _write_manifest(manifest, "pretrain", cfg, seed, [out.name],
                    {"data": str(args.data), "loss_trace": trace})
    print(f"pretrained {cfg.epochs} epochs on {len(pillars)} samples; "
          f"loss {trace[0]:.4f} -> {trace[-1]:.4f}; wrote {out}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    if args.labels < 1:
        raise ConfigError(f"--labels must be >= 1, got {args.labels}")
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    pretrained = load_model(args.ckpt, cfg)
    seq_dirs = _load_dataset_dirs(Path(args.data))
    if args.labels > len(seq_dirs):
        raise DataError(f"--labels {args.labels} exceeds {len(seq_dirs)} sequences")
    pillars, labels = build_samples(map(load_sequence,
                                        seq_dirs[:args.labels]), cfg, None)
    params, trace = train(pretrained, pillars, labels, cfg, seed)
    out = Path(args.out)
    manifest = _unlinked_manifest(out)
    save_model(out, params, cfg, seed, extra={"loss_trace": trace,
                                              "finetuned_from": str(args.ckpt)})
    _write_manifest(manifest, "finetune", cfg, seed, [out.name],
                    {"ckpt": str(args.ckpt), "labels": args.labels,
                     "loss_trace": trace})
    print(f"finetuned on {len(pillars)} labeled frames; wrote {out}")
    return EXIT_OK


def cmd_eval_miou(args) -> int:
    cfg = load_config(args.config)
    params = load_model(args.ckpt, cfg)
    seq_dirs = _load_dataset_dirs(Path(args.data))
    pillars, labels = build_samples(map(load_sequence, seq_dirs), cfg, None)
    _, iou, mean = evaluate(params, pillars, labels, cfg)
    per_class = {str(i): _json_ratio(v) for i, v in enumerate(iou)}
    print(json.dumps({"miou": _json_ratio(mean), "iou": per_class},
                     indent=2))
    return EXIT_OK


def _json_ratio(v) -> float | None:
    """An IoU for JSON: NaN (no support) is null, else rounded to 6 places."""
    return None if np.isnan(v) else round(float(v), 6)


#: the largest --sweeps: about 0.4 GB of Bayes-bound results (see its help)
_MAX_SWEEPS = 10**7


def cmd_theory_check(args) -> int:
    if not 1 <= args.sweeps <= _MAX_SWEEPS:
        raise ConfigError(f"--sweeps must lie in 1..{_MAX_SWEEPS}, "
                          f"got {args.sweeps}")
    rng = substream(args.seed, "theory")
    bound = theory.sweep_bayes_bound(args.sweeps, int(rng.integers(2**63)))
    lemma = theory.sweep_lemma1(max(1, args.sweeps // 10),
                                int(rng.integers(2**63)))
    risk = theory.sweep_risk_ordering(max(1, args.sweeps // 10),
                                      int(rng.integers(2**63)))
    report = {"bayes_bound": bound, "lemma1": lemma, "risk_ordering": risk}
    print(json.dumps(report, indent=2))
    total_violations = (bound["violations"] + lemma["violations"]
                        + risk["violations"])
    return EXIT_OK if total_violations == 0 else EXIT_NUMERIC


# -- entry point ---------------------------------------------------------------

def _seed(text: str) -> int:
    """The argparse type of every ``--seed``: an integer in 0..2**64-1, so
    no two accepted seeds alias; anything else is a usage error."""
    try:
        seed = int(text)
        if 0 <= seed <= MAX_SEED:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer in 0..{MAX_SEED}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="occspot",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scenes", help="generate a synthetic dataset tree")
    g.add_argument("--config", required=True)
    g.add_argument("--seed", type=_seed, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_scenes)

    m = sub.add_parser("make-occ", help="occupancy grid from a sequence dir")
    m.add_argument("--config", required=True)
    m.add_argument("sequence_dir")
    m.add_argument("out")
    m.set_defaults(fn=cmd_make_occ)

    r = sub.add_parser("resample", help="beam-resample a frame file")
    r.add_argument("--factor", type=float, required=True)
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("input")
    r.add_argument("output")
    r.set_defaults(fn=cmd_resample)

    b = sub.add_parser("balance-weights", help="print Eq-7-style class weights")
    b.add_argument("stats")
    b.set_defaults(fn=cmd_balance_weights)

    t = sub.add_parser("pretrain", help="pre-train the toy model on occupancy")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=_seed, default=None)
    t.set_defaults(fn=cmd_pretrain)

    f = sub.add_parser("finetune", help="fine-tune on K labeled sequences")
    f.add_argument("--ckpt", required=True)
    f.add_argument("--labels", type=int, required=True)
    f.add_argument("--config", required=True)
    f.add_argument("--data", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--seed", type=_seed, default=None)
    f.set_defaults(fn=cmd_finetune)

    e = sub.add_parser("eval-miou", help="evaluate a checkpoint's mIoU")
    e.add_argument("ckpt")
    e.add_argument("data")
    e.add_argument("--config", required=True)
    e.set_defaults(fn=cmd_eval_miou)

    c = sub.add_parser("theory-check", help="randomized bound verification")
    c.add_argument("--sweeps", type=int, default=100000,
                   help="joints in the Bayes-bound sweep, 1..10**7, and a "
                        "tenth as many in each other sweep; a Bayes-bound "
                        "joint keeps 41 bytes of results, so 10**7 take "
                        "about 0.4 GB")
    c.add_argument("--seed", type=_seed, default=0)
    c.set_defaults(fn=cmd_theory_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _reuse_freed_memory()
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError, ValueError) as exc:  # FormatError is one
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
