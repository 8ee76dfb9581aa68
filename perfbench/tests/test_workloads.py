import json
from pathlib import Path

import pytest

import flow
import layers
import run
from occspot.config import load_config

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_config_parses(name):
    cfg = load_config(BENCH / "workloads" / f"{name}.json")
    assert cfg.n_sequences >= flow.FINETUNE_LABELS
    assert cfg.target_beams, "pretrain must exercise beam re-sampling"


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == layers.METRICS


def test_heldout_seed_is_derived_and_distinct():
    seeds = range(1000)
    held = [flow.heldout_seed(s) for s in seeds]
    assert held == [flow.heldout_seed(s) for s in seeds]
    assert all(h != s for s, h in zip(seeds, held))


def _flow(miou):
    return {"codes": {"gen_scenes": [0]}, "loss_traces": {"pretrain": [1.0]},
            "miou": miou, "hashes": {"grids": "g"},
            "train_sequences": ["a"], "heldout_sequences": ["b"]}


def test_a_changed_output_fails_against_the_stored_reference(tmp_path):
    expect = tmp_path / "expect.json"
    assert all(run.check([_flow(0.5), _flow(0.5)], expect).values())
    assert expect.is_file()
    checks = run.check([_flow(0.25)], expect)
    assert checks["matches_earlier_runs"] is False
    assert run.check([_flow(0.5)], expect)["matches_earlier_runs"]
