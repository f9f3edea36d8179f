"""The benchmark's own tests, at tiny sizes (under a minute in all).

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import tfilm.model  # noqa: E402
import tfilm.train  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, capsys):
    bench.report(*bench.run(workload, 7, 0.5, trace, size="tiny"))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
        assert trace or m["value"] > 0
    for name, m in result["metrics"].items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)


def test_corrupted_output_is_counted_and_the_run_goes_on(monkeypatch):
    forward = tfilm.model.Model.forward
    calls = []

    def corrupting(model, x, mode="eval", *args, **kwargs):
        out = forward(model, x, mode, *args, **kwargs)
        calls.append(mode)
        if len(calls) == 3:  # after the reference case and the warm-up
            out.data[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(tfilm.model.Model, "forward", corrupting)
    result, record = bench.run("impute-infer", 7, 0.5, 0, size="tiny")
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert "infer: patch output finite with shape (1, T, 1)" in record["detail"]["failures"]
    assert record["detail"]["units"] >= 2


def test_corrupted_checkpoint_is_counted(monkeypatch):
    save = tfilm.train.save_checkpoint

    def corrupting(path, model):
        save(path, model)
        with open(path, "r+b") as fh:   # flip the last stored parameter
            fh.seek(-4, 2)
            fh.write(np.float32(1234.5).tobytes())

    monkeypatch.setattr(tfilm.train, "save_checkpoint", corrupting)
    result, record = bench.run("sr-train", 7, 0.5, 0, size="tiny")
    assert result["failed"] == 1
    assert record["detail"]["failures"] == [
        "train: written checkpoint loads back to the parameters"]
