"""Tests of the benchmark itself: metric names, reduced-size runs, and that
every output check rejects a wrong answer.

Run with ``python -m pytest perfbench/tests``.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, harness  # noqa: E402
from perfbench.tracing import Tracer, TimedApply, instrument_library  # noqa: E402
from perfbench.workloads import SMALL, TOL, seeded_loads  # noqa: E402
from wavedd import maxwell, schwarz  # noqa: E402
from wavedd.schwarz import CoarseSpace, TwoLevel  # noqa: E402

WORKLOADS = ("helmholtz-shots", "wedge-spectral", "maxwell-steps")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_workloads_and_command():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_passes_checks_and_prints_the_declared_metrics(workload):
    spec = _spec()
    results = {}
    for trace in (0, 1):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    plain, traced = results[0], results[1]
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    for res in (plain, traced):
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    # same seed, traced or not: the same solves take the same iterations
    per_method = sum(v["value"] for k, v in traced["metrics"].items()
                     if k.startswith("linalg.iterations."))
    assert per_method == plain["metrics"]["iterations"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_changes_the_loads_but_not_the_work(workload):
    runs = [harness.run(SMALL[workload], seed, 0.01, False) for seed in (1, 2, 5)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
    counts = [sorted(res["iterations_per_round"].values()) for res in runs]
    assert counts[0] == counts[1] == counts[2]
    loads = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    orders = {tuple(np.concatenate(seeded_loads(loads, np.random.default_rng(seed))))
              for seed in (1, 2, 5)}
    assert len(orders) > 1


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "helmholtz-shots", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------------------ checks


@pytest.fixture(scope="module")
def wedge():
    wl = SMALL["wedge-spectral"]
    st = wl.setup(Tracer())
    b = wl.loads(st)[0]
    return st, b


def test_residual_check_rejects_a_perturbed_solution(wedge):
    st, b = wedge
    x = checks.DirectReference(st.A).solve(b)
    assert checks.residual_ok(st.A, x, b, TOL)
    assert not checks.residual_ok(st.A, x * (1 + 1e-3), b, TOL)
    assert not checks.residual_ok(st.A, np.full_like(x, np.nan), b, TOL)


def test_direct_check_rejects_a_perturbed_solution(wedge):
    st, b = wedge
    ref = checks.DirectReference(st.A)
    x = ref.solve(b)
    assert ref.kappa1 >= 1.0
    assert ref.error_bound(TOL) == min(ref.kappa1, checks.ERROR_CEILING) * TOL
    assert ref.agrees(x, b, TOL)
    rng = np.random.default_rng(1)
    noise = rng.standard_normal(x.shape) * np.linalg.norm(x) / np.sqrt(x.size)
    assert not ref.agrees(x + 1e-2 * noise, b, TOL)


def test_direct_check_rejects_an_error_that_the_residual_misses():
    wl = SMALL["maxwell-steps"]
    st = wl.setup(Tracer())
    A = st.A
    w, V = np.linalg.eigh(A.toarray())
    # the near-kernel of curl-curl (the gradients, scaled by alpha * eps) lies
    # below 1, the rest of the spectrum above 400; take a load orthogonal to it
    low = V[:, w < 1.0]
    b = wl.loads(st)[0]
    b -= low @ (low.T @ b)
    ref = checks.DirectReference(A)
    # add the lowest mode, scaled so that the residual stays below tol
    y = ref.solve(b) + 0.5 * TOL * np.linalg.norm(b) / w[0] * V[:, 0]
    assert checks.residual_ok(A, y, b, TOL)
    assert ref.kappa1 * TOL > 1.0  # the bound from the residual alone says nothing
    assert not ref.agrees(y, b, TOL)


def test_coarse_check_rejects_a_corrupted_coarse_factor(wedge):
    st, _ = wedge
    rng = np.random.default_rng(2)
    for cs in st.coarse_spaces.values():
        assert checks.coarse_reproduces_span(cs, st.A, rng)
        # E factored from a perturbed operator: H A Z c = Z c / 1.001
        corrupted = CoarseSpace(cs.Z, 1.001 * st.A, provenance="corrupted")
        assert not checks.coarse_reproduces_span(corrupted, st.A, rng)


def test_pou_check_rejects_perturbed_weights(wedge):
    st, _ = wedge
    assert checks.pou_sums_to_one(st.dec)
    sd = st.dec.subdomains[0]
    saved = sd.weights.copy()
    try:
        sd.weights[0] *= 1.0 + 1e-9
        assert not checks.pou_sums_to_one(st.dec)
    finally:
        sd.weights = saved


def test_iteration_checks_reject_wrong_counts():
    assert checks.fewer_iterations(10, 11)
    assert not checks.fewer_iterations(11, 11)
    assert checks.rounds_identical([[3, 4], [3, 4]])
    assert not checks.rounds_identical([[3, 4], [3, 5]])


# ------------------------------------------------------------------ tracing


def test_instrumentation_restores_the_library_and_records_nested_spans(wedge):
    st, b = wedge
    before = (schwarz.CoarseSpace, schwarz.orthonormalize, maxwell.dense_generalized_eig)
    tr = Tracer()
    with instrument_library(tr):
        assert schwarz.CoarseSpace is not before[0]
        cs = st.coarse_spaces["grid"]
        schwarz.CoarseSpace(cs.Z, st.system.A, provenance="grid")
        with tr.span("apply"):
            TwoLevel(TimedApply(st.one, "one", tr), TimedApply(cs, "coarse", tr),
                     st.system.A).apply(b)
    assert (schwarz.CoarseSpace, schwarz.orthonormalize, maxwell.dense_generalized_eig) == before
    names = [s["name"] for s in tr.to_json()]
    assert names.count("schwarz.coarse_factor") == 1
    assert "linalg.lu_factorize" in names  # the sparse grid E is factored by lu_factorize
    top = names.index("apply")
    assert {s["name"] for s in tr.to_json() if s["parent"] == top} == {"one", "coarse"}
