"""The traced benchmark run's view of the package still matches the package.

``perfbench/layers.py`` wraps the functions it lists in ``TARGETS`` at
every binding, and its counter hooks bind some of their arguments by name.
A rename or deletion under ``src/`` that breaks either would only show in
a traced benchmark run; these tests show it in the unit suite.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: span name -> the argument names its hook in layers.py binds
HOOKED_ARGS = {
    "synth.scan": {"beams"},
    "augment.beam_resample": {"cloud"},
    "occupancy.make_occupancy": {"densify", "spec"},
    "formats.read": {"path"},
    "formats.write": {"path"},
    "learn.conv_forward": {"w"},
    "learn.conv_backward_weight": {"gy"},
    "learn.conv_backward_input": {"gy", "w"},
    "learn.lovasz_softmax": {"pred", "gt", "classes"},
}


@pytest.fixture(scope="module")
def bench():
    """(layers, spans) loaded from the benchmark's directory."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(BENCH))
    return layers, layers.spans


def test_install_then_uninstall(bench):
    layers, spans = bench
    targets = layers.originals()  # every TARGETS function resolves
    assert len(targets) == sum(len(fns) for _, _, fns in layers.TARGETS)
    patched = layers.install(spans.Recorder())
    try:
        assert {id(orig) for _, _, orig in patched} == set(map(id, targets))
        for mod, attr, orig in patched:
            assert getattr(mod, attr).__wrapped__ is orig
    finally:
        spans.uninstall(patched)
    for mod, attr, orig in patched:
        assert getattr(mod, attr) is orig


def test_hooked_targets_keep_their_argument_names(bench):
    layers, _ = bench
    assert set(HOOKED_ARGS) <= set(layers.HOOKS)
    checked = set()
    for fn, span_name in layers.originals().items():
        need = HOOKED_ARGS.get(span_name, set())
        params = set(inspect.signature(fn).parameters)
        assert need <= params, f"{fn.__module__}.{fn.__name__} lost {need - params}"
        checked.add(span_name)
    assert set(HOOKED_ARGS) <= checked


def test_flow_and_setup_probe_names_resolve():
    """`perfbench/flow.py` runs every stage through ``occspot.cli.main`` and
    records ``occspot.pipeline.worker_count()``; the set-up probe in
    `perfbench/run.py` imports ``occspot.cli`` and calls its ``load_config``.
    """
    from occspot import cli, pipeline

    for fn in (cli.main, cli.load_config, pipeline.worker_count):
        assert callable(fn)
    assert {"argv"} <= set(inspect.signature(cli.main).parameters)
    assert pipeline.worker_count() >= 1
