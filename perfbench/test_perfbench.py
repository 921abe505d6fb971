"""Tests of the benchmark's own machinery (run from the repository root).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench_run
from perfbench.stats import (
    TAIL_LADDER,
    poisson_offsets,
    summarize,
    tail_percentile,
    tail_supported,
)
from perfbench.wire import encode_frame, encode_predict, read_frame

ROOT = Path(__file__).resolve().parent.parent


def test_predict_frame_round_trips_through_the_server_decoder():
    from repro.serve.frontend import ServeFrontend, _decode_sample

    sample = np.random.default_rng(0).standard_normal((3, 16, 16)).astype(
        np.float32)
    reader = asyncio.StreamReader()
    reader.feed_data(encode_predict(41, sample.shape, sample.tobytes()))
    reader.feed_eof()
    header, payload = asyncio.run(ServeFrontend._read_frame(None, reader))
    assert header["kind"] == "predict" and header["id"] == 41
    decoded = _decode_sample(header, payload)
    assert decoded.dtype == np.float32
    assert np.array_equal(decoded, sample)


def test_client_reads_the_server_response_frame():
    from repro.serve.frontend import _encode_frame

    response = {"id": 9, "status": "ok", "label": 3, "server_ms": 1.5}
    stream = io.BytesIO(_encode_frame(response) + encode_frame({"id": 10}))
    assert read_frame(stream) == response
    assert read_frame(stream) == {"id": 10}
    assert read_frame(stream) is None


@pytest.mark.parametrize("samples", [20, 99, 100, 450, 999, 1000, 2500, 10**5])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(samples):
    pct = tail_percentile(samples)
    assert samples * (100 - pct) / 100 >= 10
    higher = [p for p in TAIL_LADDER if p > pct]
    assert all(samples * (100 - p) / 100 < 10 for p in higher)


def test_tail_needs_ten_samples_beyond_at_least_the_median():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_round_median_ignores_one_noisy_round():
    quiet = np.ones(300)
    stats = summarize([quiet, np.full(300, 50.0), quiet], 90.0)
    assert stats["p50"] == 1.0 and stats["tail"] == 1.0
    assert stats["tail_supported"] and stats["n"] == 900
    assert not summarize([quiet, np.ones(50)], 90.0)["tail_supported"]


def test_poisson_schedule_is_reproducible_from_the_seed():
    first = poisson_offsets(200.0, 5.0, np.random.default_rng(7))
    again = poisson_offsets(200.0, 5.0, np.random.default_rng(7))
    other = poisson_offsets(200.0, 5.0, np.random.default_rng(8))
    assert np.array_equal(first, again)
    assert not np.array_equal(first[:50], other[:50])
    assert np.all(np.diff(first) > 0) and first[-1] < 5.0
    assert abs(len(first) - 1000) < 5 * np.sqrt(1000)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        row[:2] for row in bench_run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER)
    from repro.runtime.plan import STEP_KINDS

    assert bench_run._KINDS == STEP_KINDS


def test_fixed_rates_and_limits_are_stated_in_benchmark_json():
    from perfbench.serve_wire import WORKLOADS

    why = {w["name"]: w["why"]
           for w in json.loads((ROOT / "BENCHMARK.json").read_text())[
               "workloads"]}
    for name in set(why) & set(WORKLOADS):
        spec = WORKLOADS[name]
        for number in (spec.low_rps, spec.high_rps, spec.limit_ms):
            assert f"{number:g}" in why[name], (name, number)


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode == 1 and "ran late" in proc.stderr:
        # A one-second run on a loaded host can catch a scheduling stall in
        # the load generator; the run then rightly withholds its numbers.
        pytest.skip("load generator ran late on this host")
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_passes_its_gates(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = ([row[0] for row in bench_run.END_TO_END] if trace == 0
             else [name for name, _ in bench_run.PER_LAYER])
    assert list(result["metrics"]) == names
    for entry in result["metrics"].values():
        assert np.isfinite(entry["value"])
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_repro_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-mlp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
