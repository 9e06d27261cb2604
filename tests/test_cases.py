"""The checked-in cases: the library's wedge is the acceptance wedge, every
case file parses, runs from the CLI, and the research scripts run through
``run_case``."""

import glob
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from wavedd.bench import RunConfig, _build_model, parse_config, render_config, run_case
from wavedd.decomposition import assemble_local_matrices, decompose
from wavedd.helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz
from wavedd.linalg import KrylovConfig, krylov_solve
from wavedd.mesh import build_rect_mesh, refine_uniform
from wavedd.schwarz import EigenSelection, OneLevel, TwoLevel, build_dtn_cs, build_grid_cs
from wavedd.velocity import VelocityModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = sorted(glob.glob(os.path.join(ROOT, "cases", "*.cfg")))


def _case(name: str) -> RunConfig:
    with open(os.path.join(ROOT, "cases", f"{name}.cfg")) as fh:
        return parse_config(fh.read())


def _run(*args):
    """Run ``args`` with the repository's src first on PYTHONPATH, at one
    BLAS thread; a child process does not inherit pytest's pythonpath."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env)


def test_wedge_model_is_the_acceptance_wedge():
    """At c = 1, contrast 5 and height 0.25 the wedge is the fixtures' model
    bit for bit; at height 0.5 its interfaces are those of the
    helmholtz-shots benchmark workload."""
    model = _build_model(RunConfig(model="wedge", contrast=5.0, width=2.5, height=0.25))
    assert np.array_equal(model.speeds, [1.0, 2.2, 5.0])
    assert model.interfaces == [(0.09, 0.02), (0.17, -0.015)]

    sys.path.insert(0, ROOT)
    try:
        from perfbench.workloads import FULL
    finally:
        sys.path.pop(0)
    shots = FULL["helmholtz-shots"].case
    model = _build_model(RunConfig(model="wedge", contrast=5.0, width=shots.width,
                                   height=shots.height))
    assert shots.height == 0.5 and model.interfaces == shots.interfaces()


@pytest.mark.parametrize("path", CASES, ids=os.path.basename)
def test_case_files_parse_and_round_trip(path):
    with open(path) as fh:
        cfg = parse_config(fh.read())
    assert parse_config(render_config(cfg)) == cfg


def test_case_files_are_the_named_cases():
    assert [os.path.basename(p) for p in CASES] == [
        "acceptance-wedge.cfg", "channel48.cfg", "wedge-spectral.cfg"]
    assert _case("wedge-spectral") == replace(_case("acceptance-wedge"), ppwl=5.0)


def test_wedge_spectral_case_is_the_hand_built_case():
    """``run_case`` on the wedge-spectral case gives the counts of the same
    problem built by hand as the criterion 4 fixture builds it (the 5-ppwl
    mesh, 4,221 DOFs): one-level 44, grid 18, DtN 10."""
    cfg = _case("wedge-spectral")
    ran = {m: run_case(replace(cfg, preconditioner=m)) for m in ("one-level", "grid", "dtn")}

    coarse = build_rect_mesh(2.5, 0.25, 50, 5, order=2)
    mesh = refine_uniform(coarse, 1)
    model = VelocityModel.layered_wedge([1.0, 2.2, 5.0], [(0.09, 0.02), (0.17, -0.015)])
    prob = HelmholtzProblem(mesh=mesh, model=model, omega=2 * np.pi * 8,
                            source=PointSource(1.25, 0.22))
    system = assemble_helmholtz(prob)
    dec = decompose(mesh, 16, shape="strips")
    assemble_local_matrices(dec, prob, system)
    one = OneLevel(dec)
    ops = {"one-level": one.apply,
           "grid": TwoLevel(one, build_grid_cs(prob, coarse, system), system.A).apply,
           "dtn": TwoLevel(one, build_dtn_cs(dec, system, EigenSelection("re_below", None, 20)),
                           system.A).apply}
    built = {m: krylov_solve(system.A, op, system.b, KrylovConfig(tol=1e-6, max_iter=500))[1]
             for m, op in ops.items()}

    assert system.A.shape[0] == 4221 and all(r.n_dofs == 4221 for r in ran.values())
    assert ({m: r.iterations for m, r in ran.items()}
            == {m: r.iterations for m, r in built.items()}
            == {"one-level": 44, "grid": 18, "dtn": 10})


def test_cli_runs_a_case_file():
    out = _run("-m", "wavedd.cli", "run", "cases/wedge-spectral.cfg",
               "--set", "preconditioner=dtn")
    assert out.returncode == 0, out.stderr
    assert "10 iterations" in out.stdout


def test_wedge_table_script_runs():
    out = _run("scripts/wedge_table.py", "--f", "2", "--n", "4", "--methods", "one-level,dtn")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()
    assert rows[0].startswith("f,dofs,N,method,iterations") and len(rows) == 3


def test_maxwell_contrast_script_runs():
    """At 12 cells and 4 subdomains, contrast 1: ASP 25, one-level 19,
    free 11 and free + GenEO 11, with no GenEO mode added."""
    out = _run("scripts/maxwell_contrast.py", "--cells", "12", "--n", "4",
               "--contrasts", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1].split() == ["1", "25", "19", "11", "11", "0"]
