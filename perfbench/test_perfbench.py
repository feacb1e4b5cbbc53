"""Smoke tests for the repo benchmark, at reduced workload sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import parts  # noqa: E402
import run  # noqa: E402
from worker import run_pass  # noqa: E402

#: Reduced sizes: seconds of host time instead of tens.
SMALL = """
import parts
from repro.world.geometry import Pose2D
parts.EXPLORE_HORIZON_S = 4.0
parts.NAV_WORLD_M = 5.0
parts.NAV_START = Pose2D(1.0, 1.0, 0.7)
parts.NAV_GOAL = Pose2D(1.2, 3.8, 0.0)
parts.FLEET_A.update(n_robots=12, workers=1, sim_time_s=10.0)
parts.FLEET_B.update(sim_time_s=6.0)
parts.GEO.update(robots=6, sim_time_s=30.0, background=200)
"""


@pytest.fixture()
def small(monkeypatch: pytest.MonkeyPatch) -> None:
    """Apply SMALL to this process; every size is restored afterwards."""
    for name in ("EXPLORE_HORIZON_S", "NAV_WORLD_M", "NAV_START", "NAV_GOAL"):
        monkeypatch.setattr(parts, name, getattr(parts, name))
    for name in ("FLEET_A", "FLEET_B", "GEO"):
        monkeypatch.setattr(parts, name, dict(getattr(parts, name)))
    exec(SMALL, {})


def _pass(workload: str, seed: int) -> dict:
    wl = parts.WORKLOADS[workload]
    ps = wl.parts(seed)
    return run_pass(wl, ps, ps[0].build(None))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_child_time_is_charged_to_the_child_not_the_parent() -> None:
    clock = FakeClock()
    rec = layers.SpanRecorder(clock)

    def child() -> None:
        clock.t += 5.0  # burns a known 5 s

    child_t = rec.wrap("child", child)

    def parent() -> None:
        clock.t += 1.0
        child_t()
        clock.t += 2.0

    rec.wrap("parent", parent)()
    assert rec.self_s == {"parent": 3.0, "child": 5.0}
    assert rec.calls == {"parent": 1, "child": 1}


def test_nested_calls_of_one_metric_count_once_and_never_twice_in_time() -> None:
    clock = FakeClock()
    rec = layers.SpanRecorder(clock)

    def inner() -> str:
        clock.t += 4.0
        return "x"

    inner_t = rec.wrap("net", inner)

    def outer() -> str:
        clock.t += 1.0
        return inner_t()

    outer_t = rec.wrap("net", outer)
    seen = []
    rec.after["net"] = lambda inst, result: seen.append(result)
    assert outer_t() == "x"
    assert rec.self_s["net"] == 5.0
    assert rec.calls["net"] == 1
    assert seen == ["x"]


def test_a_span_that_raises_still_closes() -> None:
    clock = FakeClock()
    rec = layers.SpanRecorder(clock)

    def boom() -> None:
        clock.t += 2.0
        raise ValueError("boom")

    boom_t = rec.wrap("child", boom)

    def parent() -> None:
        try:
            boom_t()
        except ValueError:
            clock.t += 1.0

    rec.wrap("parent", parent)()
    assert rec.self_s == {"parent": 1.0, "child": 2.0}


# ----------------------------------------------------------------------
# Checks and the operation count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(parts.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_passes_its_checks(small: None, workload: str, seed: int) -> None:
    rec = _pass(workload, seed)
    assert [p["failures"] for p in rec["parts"]] == [[] for _ in rec["parts"]]
    assert run.tick_metrics(rec["parts"])["tick_mean_ms"] > 0
    assert run.outcome_metrics(rec["parts"])["outcome.miss_rate"] >= 0


def test_rerunning_a_seed_reproduces_every_simulated_result(small: None) -> None:
    for workload in ("explore", "fleet", "geo"):
        first, second = _pass(workload, 3), _pass(workload, 3)
        assert [p["digest"] for p in first["parts"]] == [p["digest"] for p in second["parts"]]
        other = _pass(workload, 4)
        assert [p["digest"] for p in first["parts"]] != [p["digest"] for p in other["parts"]]


def test_a_failed_check_or_a_different_result_is_a_failed_operation() -> None:
    def part(name: str, digest: str, failures: list[str]) -> dict:
        return {"name": name, "digest": digest, "failures": failures}

    v = run.Verdict()
    v.add([part("a", "1", []), part("b", "2", [])])
    v.add([part("a", "1", []), part("b", "3", [])])
    v.add([part("a", "1", ["a: mission failed"]), part("b", "2", [])])
    assert (v.attempted, v.failed) == (6, 2)
    assert any("differ" in p for p in v.problems)


def test_offloaded_navigation_must_beat_local() -> None:
    ps = [parts.Part(f"navigate:{d.label}", lambda tel: None) for d in parts.DEPLOYMENTS]
    outs = [
        parts.Outcome("", counts={"mission_energy_j": e, "mission_time_s": t})
        for e, t in ((500.0, 40.0), (100.0, 15.0), (90.0, 14.0), (600.0, 15.0), (95.0, 45.0))
    ]
    parts._fig13_shape(ps, outs)
    assert [bool(o.failures) for o in outs] == [False, False, False, True, True]


# ----------------------------------------------------------------------
# The traced run, end to end in its own process
# ----------------------------------------------------------------------
def _worker(workload: str, mode: str) -> dict:
    script = SMALL + (
        "import sys, worker\n"
        f"sys.exit(worker.main(['--workload', '{workload}', '--seed', '1', "
        f"'--mode', '{mode}']))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=HERE, stdout=subprocess.PIPE, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([HERE, os.path.join(ROOT, "src")])},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["explore", "fleet"])
def test_traced_layer_table_closes_to_the_traced_wall_time(workload: str) -> None:
    plain, traced = _worker(workload, "plain"), _worker(workload, "traced")
    table = traced["passes"][0]["layers"]
    selfs = {k: v for k, v in table.items() if k.endswith(".self_s")}
    assert min(selfs.values()) >= 0.0
    assert table["sim.residual_s"] >= 0.0
    assert sum(selfs.values()) + table["sim.residual_s"] == pytest.approx(table["trace.wall_s"])
    # wrappers must not change what is simulated
    assert [p["digest"] for p in traced["passes"][0]["parts"]] == [
        p["digest"] for p in plain["passes"][0]["parts"]
    ]
    values = run.layer_metrics(plain, traced)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])
    wall = values["trace.wall_s"]
    if workload == "explore":
        perception = sum(
            values[f"{k}.self_s"]
            for k in ("perception.gmapping", "perception.costmap", "world.lidar")
        )
        assert perception >= 0.5 * wall
    else:
        serving = sum(
            values[k] for k in ("cloud.submit.self_s", "cloud.pick.self_s",
                                "network.send.self_s", "sim.residual_s")
        )
        assert serving >= 0.5 * wall
        assert traced["request_traced_parts"][0]["digest"] == plain["passes"][0]["parts"][0]["digest"]
        assert values["cloud.queue_wait_p99_ms"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path) -> None:
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), encoding="utf-8") as src:
                (tmp_path / "perfbench" / name).write_text(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        (tmp_path / "BENCHMARK.json").write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
