"""Which occspot functions the traced run wraps, and the per-layer metrics.

Every layer metric is taken from outside the program: a span around each
public function listed in :data:`TARGETS`, and counters derived by hooks
from that call's arguments and return value.  Nothing under ``src/`` knows
it is being traced.

Which end-to-end metric each group should move, and on which workload:

- ``synth``: ``gen_scenes_s`` on scan_heavy (and occupancy_heavy); flat on
  train_heavy.
- ``formats``: ``gen_scenes_s`` through writes, the later stages through
  reads; largest on occupancy_heavy (72 frames per data set).
- ``occupancy``: ``make_occ_s``, ``pretrain_s``, ``finetune_s`` and
  ``eval_miou_s`` on occupancy_heavy.
- ``augment``: ``pretrain_s`` on scan_heavy.
- ``learn``: ``pretrain_s`` and ``finetune_s`` on train_heavy, and
  ``eval_miou_s`` through the forward pass.
- ``theory``: ``theory_check_s``, the same 20k sweeps on every workload.
- ``config``: ``setup_s``.  ``cli``: stage time no child span covers
  (argument parsing, manifests, JSON).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict

import numpy as np

import spans

PACKAGE = "occspot"

_READERS = ("read_frame", "read_labels", "read_grid", "read_checkpoint")
_WRITERS = ("write_frame", "write_labels", "write_boxes", "write_grid",
            "write_checkpoint")

#: (span name, defining module, function names) — several functions may
#: share one span name, e.g. every binary reader is ``formats.read``.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("synth.scan", "occspot.synth", ("scan",)),
    ("synth.build_scene", "occspot.synth", ("build_scene",)),
    ("formats.write", "occspot.formats", _WRITERS),
    ("formats.read", "occspot.formats", _READERS),
    ("formats.read_boxes", "occspot.formats", ("read_boxes",)),
    ("pipeline.generate_dataset", "occspot.pipeline", ("generate_dataset",)),
    ("pipeline.load_sequence", "occspot.pipeline", ("load_sequence",)),
    ("pipeline.build_samples", "occspot.pipeline", ("build_samples",)),
    ("occupancy.make_occupancy", "occspot.occupancy", ("make_occupancy",)),
    ("occupancy.aggregate", "occspot.occupancy", ("aggregate",)),
    ("occupancy.split_dynamic_static", "occspot.occupancy",
     ("split_dynamic_static",)),
    ("occupancy.voxelize_bev", "occspot.occupancy", ("voxelize_bev",)),
    ("occupancy.knn_label", "occspot.occupancy", ("knn_label",)),
    ("augment.beam_resample", "occspot.augment", ("beam_resample",)),
    ("augment.random_flip", "occspot.augment", ("random_flip",)),
    ("learn.pillar_features", "occspot.learn.model", ("pillar_features",)),
    ("learn.model_forward", "occspot.learn.model", ("model_forward",)),
    ("learn.model_backward", "occspot.learn.model", ("model_backward",)),
    ("learn.conv_forward", "occspot.learn.model", ("conv_forward",)),
    ("learn.conv_backward_weight", "occspot.learn.model",
     ("conv_backward_weight",)),
    ("learn.conv_backward_input", "occspot.learn.model",
     ("conv_backward_input",)),
    ("learn.tconv_forward", "occspot.learn.model", ("tconv_forward",)),
    ("learn.tconv_backward", "occspot.learn.model", ("tconv_backward",)),
    ("learn.softmax_field", "occspot.learn.losses", ("softmax_field",)),
    ("learn.weighted_ce", "occspot.learn.losses", ("weighted_ce",)),
    ("learn.lovasz_softmax", "occspot.learn.losses", ("lovasz_softmax",)),
    ("learn.total_loss", "occspot.learn.losses", ("total_loss",)),
    ("learn.adam_step", "occspot.learn.train", ("adam_step",)),
    ("learn.prepare_samples", "occspot.learn.train", ("prepare_samples",)),
    ("learn.evaluate", "occspot.learn.train", ("evaluate",)),
    ("theory.sweep_bayes_bound", "occspot.theory", ("sweep_bayes_bound",)),
    ("theory.sweep_lemma1", "occspot.theory", ("sweep_lemma1",)),
    ("theory.sweep_risk_ordering", "occspot.theory", ("sweep_risk_ordering",)),
    ("config.load_config", "occspot.config", ("load_config",)),
)

#: the span flow.py opens around each ``occspot.cli.main`` call
CLI_SPAN = "cli"

_CONV_KERNELS = ("learn.conv_forward", "learn.conv_backward_weight",
                 "learn.conv_backward_input")
_SWEEPS = ("theory.sweep_bayes_bound", "theory.sweep_lemma1",
           "theory.sweep_risk_ordering")
#: the calls of one training step.  The training loop itself is not
#: wrapped, so in it they are children of the stage's ``cli`` span; eval's
#: forward passes are children of ``learn.evaluate`` and do not count.
_STEP = ("learn.model_forward", "learn.softmax_field", "learn.total_loss",
         "learn.model_backward", "learn.adam_step")


# -- counters derived from arguments and return values ------------------------

@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _scan(fn):
    def hook(rec, idx, args, kwargs, result):
        beams = _bound(fn, args, kwargs)["beams"]
        rec.count("synth.rays", beams.n_beams * beams.azimuth_steps)
        rec.count("synth.points", len(result[0]))
    return hook


def _file_bytes(counter: str):
    def factory(fn):
        def hook(rec, idx, args, kwargs, result):
            path = _bound(fn, args, kwargs)["path"]
            rec.count(counter, os.path.getsize(path))
        return hook
    return factory


def _beam_resample(fn):
    def hook(rec, idx, args, kwargs, result):
        rec.count("augment.points_in", len(_bound(fn, args, kwargs)["cloud"]))
        rec.count("augment.points_out", len(result[0]))
    return hook


def _aggregate(fn):
    def hook(rec, idx, args, kwargs, result):
        n = len(result[0])
        rec.count("occupancy.fused_points", n)
        rec.notes[rec.spans[idx].parent]["fused"] = n
    return hook


def _voxelize_bev(fn):
    def hook(rec, idx, args, kwargs, result):
        parent = rec.spans[idx].parent
        if parent is not None and \
                rec.spans[parent].name == "occupancy.make_occupancy":
            rec.notes[parent]["voxel_occupied"] = result.occupied_count
    return hook


def _make_occupancy(fn):
    def hook(rec, idx, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        notes = rec.notes.pop(idx, {})
        occupied = result.occupied_count
        rec.count("occupancy.occupied_cells", occupied)
        base = notes.get("voxel_occupied", occupied)
        rec.count("occupancy.densified_cells", occupied - base)
        if a["densify"] and notes.get("fused", 0) > 0:
            spec = a["spec"]
            rec.count("occupancy.densify_queries", spec.h * spec.w - base)
    return hook


def _conv_macs(fn):
    name = fn.__name__

    def hook(rec, idx, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        # every MAC is one (output cell, tap, input channel, output channel)
        if name == "conv_forward":      # result (B, OH, OW, Cout)
            macs = result.size * a["w"][..., 0].size
        elif name == "conv_backward_weight":   # result (k, k, Cin, Cout)
            macs = a["gy"].size * result[..., 0].size
        else:                           # conv_backward_input: gy is the output
            macs = a["gy"].size * a["w"][..., 0].size
        rec.count("learn.conv_macs", macs)
    return hook


def _lovasz(fn):
    def hook(rec, idx, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        gt = a["gt"]
        if a["classes"] == "present":
            active = int(np.count_nonzero(np.unique(gt)))
        else:
            active = a["pred"].shape[-1] - 1
        rec.count("learn.lovasz_sorted_elems", gt.size * active)
    return hook


def _adam_step(fn):
    def hook(rec, idx, args, kwargs, result):
        rec.count("learn.train_steps")
    return hook


def _sweep(fn):
    def hook(rec, idx, args, kwargs, result):
        rec.count("theory.sweeps", result["sweeps"])
    return hook


HOOKS = {
    "synth.scan": _scan,
    "formats.write": _file_bytes("formats.write.bytes"),
    "formats.read": _file_bytes("formats.read.bytes"),
    "augment.beam_resample": _beam_resample,
    "occupancy.aggregate": _aggregate,
    "occupancy.voxelize_bev": _voxelize_bev,
    "occupancy.make_occupancy": _make_occupancy,
    "learn.conv_forward": _conv_macs,
    "learn.conv_backward_weight": _conv_macs,
    "learn.conv_backward_input": _conv_macs,
    "learn.lovasz_softmax": _lovasz,
    "learn.adam_step": _adam_step,
    **{name: _sweep for name in _SWEEPS},
}


def originals() -> dict:
    """{original function: span name} for every target, modules imported."""
    out = {}
    for span_name, module, fns in TARGETS:
        mod = importlib.import_module(module)
        for fn in fns:
            out[getattr(mod, fn)] = span_name
    return out


def install(rec: spans.Recorder) -> list:
    """Wrap every target at every binding in the occspot package."""
    importlib.import_module(PACKAGE + ".cli")  # load every module that binds
    replacements = {}
    for fn, span_name in originals().items():
        factory = HOOKS.get(span_name)
        replacements[fn] = spans.wrap(rec, span_name, fn,
                                      factory(fn) if factory else None)
    return spans.install(PACKAGE, replacements)


# -- metrics -----------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(rec: spans.Recorder) -> dict[str, float]:
    """Per-layer metric values (see :data:`METRICS`) from one traced flow."""
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    step_s = 0.0
    for s, own in zip(rec.spans, spans.self_times(rec.spans)):
        self_s[s.name] += own
        incl_s[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.name in _STEP and s.parent is not None \
                and rec.spans[s.parent].name == CLI_SPAN:
            step_s += s.end - s.start
    c = rec.counters

    m: dict[str, float] = {}
    for span_name, _, _ in TARGETS:
        m[f"{span_name}.self_s"] = self_s[span_name]
        m[f"{span_name}.calls"] = calls[span_name]
    m["synth.rays"] = c["synth.rays"]
    m["synth.points"] = c["synth.points"]
    m["synth.hit_ratio"] = _ratio(c["synth.points"], c["synth.rays"])
    m["synth.rays_per_s"] = _ratio(c["synth.rays"], incl_s["synth.scan"])
    m["formats.write.bytes"] = c["formats.write.bytes"]
    m["formats.read.bytes"] = c["formats.read.bytes"]
    for key in ("fused_points", "occupied_cells", "densify_queries",
                "densified_cells"):
        m[f"occupancy.{key}"] = c[f"occupancy.{key}"]
    m["occupancy.densify_fill_ratio"] = _ratio(
        c["occupancy.densified_cells"], c["occupancy.densify_queries"])
    m["augment.points_in"] = c["augment.points_in"]
    m["augment.points_out"] = c["augment.points_out"]
    m["learn.conv_macs"] = c["learn.conv_macs"]
    m["learn.conv_gmac_per_s"] = _ratio(
        c["learn.conv_macs"] / 1e9, sum(self_s[k] for k in _CONV_KERNELS))
    m["learn.lovasz_sorted_elems"] = c["learn.lovasz_sorted_elems"]
    m["learn.train_steps"] = c["learn.train_steps"]
    m["learn.step_s"] = _ratio(step_s, c["learn.train_steps"])
    m["theory.sweeps_per_s"] = _ratio(c["theory.sweeps"],
                                      sum(incl_s[k] for k in _SWEEPS))
    m[f"{CLI_SPAN}.self_s"] = self_s[CLI_SPAN]
    m[f"{CLI_SPAN}.calls"] = calls[CLI_SPAN]
    return m


def stage_breakdown(rec: spans.Recorder, stages: list[str]
                    ) -> dict[str, dict[str, float]]:
    """Self seconds per layer group (span-name prefix) within each stage.

    `stages` names the root ``cli`` spans in order; repeated names add up.
    The groups of one stage sum to its wall time.
    """
    root_of: list[int] = []
    out: dict[str, dict[str, float]] = {}
    n_root = 0
    for i, (s, own) in enumerate(zip(rec.spans, spans.self_times(rec.spans))):
        if s.parent is None:
            root_of.append(n_root)
            n_root += 1
        else:
            root_of.append(root_of[s.parent])
        if root_of[i] >= len(stages):
            continue
        group = out.setdefault(stages[root_of[i]], defaultdict(float))
        group[s.name.split(".")[0]] += own
    return {k: dict(v) for k, v in out.items()}


def _better(name: str) -> str:
    higher = name.endswith(("_per_s", "_ratio", "_miou"))
    return "higher" if higher else "lower"


def _unit(name: str) -> str:
    if name.endswith(("self_s", "step_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("gmac_per_s"):
        return "GMAC/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_miou")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


#: added by run.py: eval-miou's score on the held-out data, and the overhead
#: of the traced flow over the untraced one
MIOU = "learn.heldout_miou"
OVERHEAD = "bench.trace_overhead_pct"


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return list(summarize(spans.Recorder())) + [MIOU, OVERHEAD]


#: name -> (unit, better) for every per-layer metric
METRICS = {name: (_unit(name), _better(name)) for name in metric_names()}
