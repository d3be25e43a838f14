"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import hostspeed  # noqa: E402
from layers import LAYERS, LayerProfile, classify  # noqa: E402
from workloads import (CAMPAIGN_SEED, WORKLOADS, Tally,  # noqa: E402
                       campaign_digest, input_set, load_reference)

REPRO = ROOT / "src" / "repro"


def test_batched_tallies_equal_scalar_tallies_at_a_small_plan_size():
    digests = {}
    for name in ("campaign-ino", "campaign-ino-batched"):
        workload = dataclasses.replace(WORKLOADS[name], injections=4)
        core, suite = workload.prepare()
        cache, _ = workload.record_goldens(core, suite)
        tally = Tally()
        results = workload.run_pass(core, suite, cache, CAMPAIGN_SEED, tally)
        assert not tally.problems
        digests[name] = {result.program_name: campaign_digest(result)
                         for result in results}
    assert len(digests["campaign-ino"]) == 18
    assert digests["campaign-ino"] == digests["campaign-ino-batched"]


@pytest.mark.parametrize("table", ["ino", "ooo", "explore"])
def test_every_input_set_is_pinned(table):
    reference = load_reference(table)
    seeds = reference["seeds"]
    assert len(set(seeds)) == len(seeds) == 16
    assert set(reference["digests"]) == {str(seed) for seed in seeds}
    assert input_set(reference, 0) == seeds[0]
    assert input_set(reference, 21) == input_set(reference, 5) == seeds[5]


def test_typical_leaves_out_the_slowest_probes():
    samples = [1.0] * 18 + [50.0, 60.0]
    assert hostspeed.typical(samples) == 1.0
    assert hostspeed.typical([2.0]) == 2.0


def test_host_speed_scales_wall_time_by_the_probes_taken_during_a_call():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            hostspeed.probe_kernel(1)
        return "done"

    with hostspeed.HostSpeed(interval=0.005) as host:
        result, wall, scaled = host.time(busy, 0.2)
        samples = list(host.samples)
    assert result == "done" and len(samples) >= 10
    assert 0.15 < wall <= 0.2
    assert scaled == pytest.approx(
        wall * hostspeed.REFERENCE_PROBE_S / hostspeed.typical(samples))


@pytest.mark.parametrize("func, layer", [
    ((str(REPRO / "microarch" / "state.py"), 63, "get"), "microarch.state"),
    ((str(REPRO / "microarch" / "ooo.py"), 1, "_issue"), "microarch.ooo"),
    ((str(REPRO / "microarch" / "core.py"), 240, "state_fingerprint"),
     "fingerprint"),
    ((str(REPRO / "microarch" / "core.py"), 332, "restore"), "snapshot"),
    ((str(REPRO / "microarch" / "branch_predictor.py"), 1, "predict"),
     "microarch.core"),
    ((str(REPRO / "engine" / "artifacts.py"), 67, "artifact_digest"),
     "engine.golden"),
    ((str(REPRO / "engine" / "executors.py"), 1, "execute_chunk"),
     "engine.replay"),
    ((str(REPRO / "core" / "framework.py"), 1, "explore_frontier"),
     "core.exploration"),
    ((str(REPRO / "obs" / "metrics.py"), 1, "inc"), "other"),
    (("~", 0, "<built-in method _pickle.dumps>"), "ipc"),
    (("~", 0, "<built-in method builtins.max>"), None),
    (("/usr/lib/python3/enum.py", 1, "__call__"), None),
])
def test_classify(func, layer):
    assert classify(func) == layer


def test_builtins_are_charged_to_the_calling_layer():
    from repro.faultinjection.vulnerability import VulnerabilityMap

    vulnerability = VulnerabilityMap("InO-core", 64)
    for site in range(64):
        vulnerability.record("mcf", site, samples=4, sdc=site % 3, due=1)

    def lookups():
        return [vulnerability.sdc_probability(site) for site in range(64)
                for _ in range(200)]

    _, profile = LayerProfile.capture(lookups)
    assert set(profile.self_s) == set(LAYERS)
    assert profile.share("faultinjection.vulnerability") > 0.9
    assert profile.calls("faultinjection.vulnerability", "site") == 64 * 200


def test_result_line_requires_every_end_to_end_metric():
    declared = run.declared_metrics(trace=False)
    with pytest.raises(SystemExit):
        run.result_line({"setup_s": 1.0}, declared, Tally(), require_all=True)
    with pytest.raises(SystemExit):
        run.result_line({"undeclared": 1.0}, declared, Tally(),
                        require_all=False)
    tally = Tally(attempted=3)
    line = run.result_line({"ops_per_s": 2.0, "setup_s": 1.0,
                            "peak_rss_mb": 40.0}, declared, tally,
                           require_all=True)
    assert line["correct"] and line["attempted"] == 3
    assert line["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}


def test_per_layer_metrics_cover_every_layer():
    names = {metric["name"] for metric in run.declared_metrics(trace=True)}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "campaign-ino",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
