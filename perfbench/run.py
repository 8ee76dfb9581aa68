"""occspot benchmark: the whole CLI flow on one seeded workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

``--trace 0`` reports the end-to-end metrics: the flow (see :mod:`flow`)
runs in fresh child interpreters, as many times as fit in T seconds (at
least once), and each stage time is the median over those flows;
``setup_s`` is the median of fresh interpreters that import ``occspot.cli``
and load the config, a few of them before each flow.  ``--trace 1`` runs
untraced and traced flows in pairs and reports the per-layer metrics of the
traced ones (see :mod:`layers`), the held-out mIoU and the tracing overhead.

Every stage invocation is one attempted operation; a nonzero exit code is a
failed one.  The output is correct when no stage failed, the loss traces are
finite, held-out mIoU lies in [0, 1], the held-out data shares no sequence
with the training data, and every flow of the run -- traced or not, and any
earlier run of the same workload, seed and config in this checkout, whatever
the program's source was then -- produced identical data, grids, loss
traces and mIoU.  A program change that alters any output therefore reads
as incorrect until ``.bench_work/expect`` is deleted on purpose.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and the per-flow detail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: The config of each workload is workloads/<name>.json.  Every workload
#: runs every stage, so every end-to-end metric exists on each.
WORKLOADS = ("scan_heavy", "occupancy_heavy", "train_heavy")

#: end-to-end metric -> the flow stage it times
STAGES = {
    "gen_scenes_s": "gen_scenes",
    "make_occ_s": "make_occ",
    "pretrain_s": "pretrain",
    "finetune_s": "finetune",
    "eval_miou_s": "eval_miou",
    "theory_check_s": "theory_check",
}
UNITS = {"setup_s": "s", **{k: "s" for k in STAGES}, "pipeline_s": "s",
         "peak_rss_mb": "MB"}

#: set-up probes before each flow; spread over the run, their median
#: follows the host's speed over the whole run, not over its first seconds
SETUP_PROBES = 3
#: every child is killed once a run has lasted this long
RUN_LIMIT_S = 170
_SETUP_CODE = "import sys, occspot.cli; occspot.cli.load_config(sys.argv[1])"


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed stage)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("OCCSPOT_THREADS", None)  # the program's default: one worker
    # one process, one BLAS thread: load never exceeds nproc
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _run_child(argv: list[str], deadline: float) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    # a timer, not wait(timeout=...): that polls in sleeps of up to 50 ms,
    # which would round every set-up probe up to the next poll
    killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    killer.start()
    try:
        rc = proc.wait()
        elapsed = time.perf_counter() - t0
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc == -signal.SIGKILL and time.perf_counter() >= deadline:
        raise BenchError(f"{argv[1]} timed out")
    if rc != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {rc}")
    return elapsed


def setup_time(config: Path, deadline: float) -> float:
    """Wall time of one fresh interpreter importing the CLI and its config."""
    return _run_child([sys.executable, "-c", _SETUP_CODE, str(config)],
                      deadline)


def run_flow(config: Path, seed: int, trace: bool, tag: str,
             deadline: float) -> dict:
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    try:
        _run_child([sys.executable, str(HERE / "flow.py"),
                    "--config", str(config), "--workdir", str(work),
                    "--seed", str(seed), "--out", str(out)]
                   + (["--trace"] if trace else []), deadline)
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fingerprint(flow: dict) -> dict:
    return {**flow["hashes"], "miou": flow["miou"]}


def check(flows: list[dict], expect_file: Path) -> dict[str, bool]:
    """Named correctness checks over every flow of this run."""
    first = flows[0]
    traces = [v for f in flows for t in f["loss_traces"].values()
              for v in (t or [math.nan])]
    prints = [_fingerprint(f) for f in flows]
    checks = {
        "stages_ok": all(rc == 0 for f in flows for rcs in f["codes"].values()
                         for rc in rcs),
        "loss_finite": all(math.isfinite(v) for v in traces),
        "miou_in_range": all(f["miou"] is not None and 0.0 <= f["miou"] <= 1.0
                             for f in flows),
        "heldout_disjoint": not (set(first["train_sequences"])
                                 & set(first["heldout_sequences"])),
        "repeats_identical": all(p == prints[0] for p in prints),
    }
    if expect_file.is_file():
        checks["matches_earlier_runs"] = \
            json.loads(expect_file.read_text()) == prints[0]
    elif all(checks.values()):
        expect_file.parent.mkdir(parents=True, exist_ok=True)
        expect_file.write_text(json.dumps(prints[0], sort_keys=True))
    return checks


def _ops(flows: list[dict]) -> tuple[int, int]:
    codes = [rc for f in flows for rcs in f["codes"].values() for rc in rcs]
    return len(codes), sum(rc != 0 for rc in codes)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(flows: list[dict], setups: list[float]) -> dict[str, float]:
    m = {"setup_s": _median(setups)}
    for metric, stage in STAGES.items():
        # a stage that never ran (its input failed) reads 0; correct is false
        m[metric] = _median(f["times"].get(stage, 0.0) for f in flows)
    m["pipeline_s"] = _median(f["pipeline_s"] for f in flows)
    m["peak_rss_mb"] = _median(f["peak_rss_mb"] for f in flows)
    return m


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    m = {name: _median(f["layers"][name] for f in traced)
         for name in traced[0]["layers"]}
    m[layers.MIOU] = _median(f["miou"] or 0.0 for f in traced)
    base = _median(f["pipeline_s"] for f in untraced)
    m[layers.OVERHEAD] = 100.0 * (_median(f["pipeline_s"] for f in traced)
                                  - base) / base
    return m


def measure(workload: str, config: Path, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """(final result, detail) for one run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, untraced, traced = [], [], []
    t0 = time.perf_counter()
    while True:
        if not trace:
            setups += [setup_time(config, deadline)
                       for _ in range(SETUP_PROBES)]
        untraced.append(run_flow(config, seed, False, workload, deadline))
        if trace:
            traced.append(run_flow(config, seed, True, workload, deadline))
        elapsed = time.perf_counter() - t0
        per_round = elapsed / len(untraced)
        if elapsed + per_round > seconds:
            break
    flows = untraced + traced

    # keyed on the inputs only, not on the program: outputs must not change
    config_hash = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
    expect = WORK / "expect" / f"{workload}-{seed}-{config_hash}.json"
    checks = check(flows, expect)
    if trace:
        values = per_layer(traced, untraced)
        units = {k: u for k, (u, _) in layers.METRICS.items()}
        (WORK / f"trace-{workload}-{seed}.json").write_text(
            json.dumps(traced[-1]["trace"]))
    else:
        values = end_to_end(untraced, setups)
        units = UNITS
    attempted, failed = _ops(flows)
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted + len(setups),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "flows": {"untraced": len(untraced), "traced": len(traced)},
        "setup_probes": setups, "checks": checks,
        "env": flows[0]["env"],
        "hashes": flows[0]["hashes"], "heldout_miou": flows[0]["miou"],
        "stage_calls": {k: len(v) for k, v in flows[0]["codes"].items()},
        "stage_s": [f["times"] for f in flows],
        "pipeline_s": [f["pipeline_s"] for f in flows],
    }
    if trace:
        detail["stage_breakdown"] = traced[0]["stage_breakdown"]
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "occspot" / "cli.py").is_file():
        print(f"benchmark: no occspot sources under {SRC}", file=sys.stderr)
        return 2
    config = HERE / "workloads" / f"{args.workload}.json"
    try:
        result, detail = measure(args.workload, config, args.seed,
                                 args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
