"""One pass of the occspot CLI flow for one workload, in this interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/flow.py --config CFG --workdir DIR --seed S \
        --out RESULT.json [--trace]

Stages, each one ``occspot.cli.main`` call timed on its own:
gen-scenes (training data), gen-scenes (held-out data, seed
``heldout_seed(S)``), make-occ on every training sequence, pretrain
(augmented), finetune --labels 2, eval-miou on the held-out data,
theory-check --sweeps 20000.  The result file holds the
stage times and exit codes, peak RSS, held-out mIoU, the loss traces and
hashes of every output.  With ``--trace`` the layers are wrapped first (see
:mod:`layers`) and the result also holds the spans and per-layer metrics;
without it no wrapper is ever installed in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import spans

FINETUNE_LABELS = 2
#: a fifth of the CLI default: about 3 s, still well above start-up noise
THEORY_SWEEPS = 20000


def heldout_seed(seed: int) -> int:
    """Seed of the held-out data set: derived from `seed`, never equal to it,
    so eval-miou never scores a training sequence."""
    key = f"heldout/{seed}".encode()
    h = int.from_bytes(hashlib.blake2s(key, digest_size=4).digest(), "little")
    return h + 1 if h == seed else h


def tree_hash(root: Path, pattern: str = "**/*") -> str:
    h = hashlib.sha256()
    for p in sorted(root.glob(pattern)):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def sequence_hashes(data: Path) -> list[str]:
    """One hash per sequence directory, over its frames and labels."""
    return [tree_hash(d, "frame_*.spt*") for d in sorted(data.glob("seq_*"))]


def run_stage(cli, argv: list[str], rec=None) -> tuple[int, float, str]:
    """(exit code, wall seconds, captured stdout) of one CLI invocation."""
    out = io.StringIO()
    span = (rec.span(layers.CLI_SPAN) if rec is not None
            else contextlib.nullcontext())
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), span:
            rc = cli.main(argv)
    except SystemExit as exc:       # argparse rejects its arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:               # a crash counts as a failed stage
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - t0, out.getvalue()


def run_flow(args) -> dict:
    rec = patched = None
    if args.trace:
        rec = spans.Recorder()
        patched = layers.install(rec)
    from occspot import cli

    work = Path(args.workdir)
    train, heldout, grids = work / "train", work / "heldout", work / "grids"
    grids.mkdir(parents=True, exist_ok=True)
    cfg, seed = args.config, str(args.seed)
    pre, ft = work / "pretrained.spck", work / "finetuned.spck"

    times: dict[str, float] = {}
    codes: dict[str, list[int]] = {}
    stdout: dict[str, str] = {}
    order: list[str] = []

    def stage(name: str, argv: list[str]) -> None:
        order.append(name)
        rc, dt, text = run_stage(cli, argv, rec)
        times[name] = times.get(name, 0.0) + dt
        codes.setdefault(name, []).append(rc)
        stdout[name] = text

    t0 = time.perf_counter()
    stage("gen_scenes", ["gen-scenes", "--config", cfg, "--seed", seed,
                         "--out", str(train)])
    stage("gen_heldout", ["gen-scenes", "--config", cfg, "--seed",
                          str(heldout_seed(args.seed)), "--out", str(heldout)])
    for seq in sorted(train.glob("seq_*")):
        stage("make_occ", ["make-occ", "--config", cfg, str(seq),
                           str(grids / f"{seq.name}.spog")])
    stage("pretrain", ["pretrain", "--config", cfg, "--data", str(train),
                       "--out", str(pre), "--seed", seed])
    stage("finetune", ["finetune", "--ckpt", str(pre),
                       "--labels", str(FINETUNE_LABELS), "--config", cfg,
                       "--data", str(train), "--out", str(ft), "--seed", seed])
    stage("eval_miou", ["eval-miou", str(ft), str(heldout), "--config", cfg])
    stage("theory_check", ["theory-check", "--sweeps", str(THEORY_SWEEPS),
                           "--seed", seed])
    pipeline_s = time.perf_counter() - t0

    result = {"times": times, "pipeline_s": pipeline_s, "codes": codes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0}
    if rec is not None:
        spans.uninstall(patched)
        result["layers"] = layers.summarize(rec)
        result["stage_breakdown"] = layers.stage_breakdown(rec, order)
        result["trace"] = rec.to_json()
    result.update(outputs(train, heldout, grids, pre, ft,
                          stdout.get("eval_miou", "")))
    result["env"] = environment()
    return result


def _loss_trace(ckpt: Path) -> list[float] | None:
    manifest = ckpt.with_suffix(ckpt.suffix + ".manifest.json")
    if not manifest.is_file():
        return None
    return json.loads(manifest.read_text())["loss_trace"]


def outputs(train, heldout, grids, pre, ft, eval_stdout: str) -> dict:
    """Hashes and quality figures of what the flow wrote."""
    traces = {"pretrain": _loss_trace(pre), "finetune": _loss_trace(ft)}
    try:
        miou = json.loads(eval_stdout)["miou"]
    except (ValueError, KeyError, TypeError):
        miou = None
    return {
        "miou": miou,
        "loss_traces": traces,
        "hashes": {
            "data_tree": tree_hash(train),
            "heldout_tree": tree_hash(heldout),
            "grids": tree_hash(grids, "*.spog"),
            "loss_trace": hashlib.sha256(
                json.dumps(traces, sort_keys=True).encode()).hexdigest(),
        },
        "train_sequences": sequence_hashes(train),
        "heldout_sequences": sequence_hashes(heldout),
    }


def environment() -> dict:
    import numpy
    import scipy
    from occspot.pipeline import worker_count

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "occspot_threads": worker_count(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    result = run_flow(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
