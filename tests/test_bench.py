"""Benchmark driver: configs, sweeps, CSV output, CLI."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedd.bench import (
    RunConfig,
    emit_dispersion,
    estimate_dofs,
    parse_config,
    render_config,
    run_case,
    run_sweep,
    sweep_to_csv,
)
from wavedd.dispersion import DispersionSpec
from wavedd.errors import SingularityError, StructuralError


def test_config_round_trip_defaults():
    cfg = RunConfig()
    assert parse_config(render_config(cfg)) == cfg


def test_config_round_trip_modified():
    cfg = RunConfig(problem="maxwell", model="channel", contrast=1e4, f=2.5,
                    n_subdomains=8, partition="grid:4x2", restart=30,
                    source_x=0.125, dtn_threshold=3.75, random_source=True)
    assert parse_config(render_config(cfg)) == cfg


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 100, allow_nan=False), st.integers(1, 64),
       st.sampled_from(["one-level", "grid", "dtn", "hgeneo"]))
def test_config_round_trip_fuzz(f, n, method):
    cfg = RunConfig(f=f, n_subdomains=n, preconditioner=method)
    assert parse_config(render_config(cfg)) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(StructuralError):
        parse_config("not_a_key = 3\n")
    with pytest.raises(StructuralError):
        parse_config("f 3\n")


def test_config_comments_and_overrides():
    text = "# a comment\nf = 2.0   # trailing\nn_subdomains = 4\n"
    cfg = parse_config(text, overrides={"n_subdomains": "8"})
    assert cfg.f == 2.0
    assert cfg.n_subdomains == 8


def test_run_case_single_domain_one_iteration():
    cfg = RunConfig(problem="helmholtz", model="constant", f=1.0, ppwl=8,
                    order=1, n_subdomains=1, preconditioner="one-level",
                    tol=1e-8)
    rep = run_case(cfg)
    assert rep.converged
    assert rep.iterations == 1


def test_run_case_deterministic():
    cfg = RunConfig(f=2.0, ppwl=8, order=1, n_subdomains=4,
                    preconditioner="dtn", m_max=5)
    a = run_case(cfg)
    b = run_case(cfg)
    assert a.iterations == b.iterations
    assert a.coarse_dim == b.coarse_dim
    assert a.residual == b.residual


def test_wedge_one_level_grows_with_n():
    base = RunConfig(model="wedge", contrast=5.0, f=5.0, ppwl=8, order=1,
                     preconditioner="one-level", max_iter=400)
    its = []
    for N in (4, 16):
        rep = run_case(replace(base, n_subdomains=N))
        assert rep.converged
        its.append(rep.iterations)
    assert its[1] > its[0]


MAXWELL_GENEO = RunConfig(problem="maxwell", model="constant", maxwell_cells=12,
                          alpha=1e-2, n_subdomains=4, partition="grid:2x2",
                          preconditioner="geneo-complement", tol=1e-8, max_iter=100)


def test_maxwell_case_converges():
    rep = run_case(MAXWELL_GENEO)
    assert rep.converged
    assert rep.iterations <= 50


def test_maxwell_geneo_run_builds_one_coarse_space(monkeypatch):
    """A GenEO-complement run forms and factors only the coarse matrix of
    the joint basis, not that of the free space too."""
    from wavedd import maxwell

    made = []
    real = maxwell.CoarseSpace

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(maxwell, "CoarseSpace", recording)
    rep = run_case(MAXWELL_GENEO)
    assert [cs.provenance for cs in made] == ["maxwell-geneo"]
    assert (rep.iterations, rep.coarse_dim) == (12, 168)


def test_maxwell_random_source_assembles_once(monkeypatch):
    """A random Maxwell load is drawn for the one assembled system."""
    from wavedd import bench

    systems = []
    real = bench.assemble_maxwell

    def counting(problem):
        systems.append(real(problem))
        return systems[-1]

    monkeypatch.setattr(bench, "assemble_maxwell", counting)
    cfg = RunConfig(problem="maxwell", maxwell_cells=6, preconditioner="asp",
                    random_source=True, seed=5)
    rep = run_case(cfg)
    assert len(systems) == 1 and rep.converged
    assert np.array_equal(systems[0].b, np.random.default_rng(5).standard_normal(rep.n_dofs))


def test_maxwell_asp_run_builds_no_decomposition(monkeypatch):
    """ASP needs no subdomains: an ASP run makes no edge decomposition."""
    from wavedd import bench

    def forbidden(*args, **kwargs):
        raise AssertionError("an ASP run built an edge decomposition")

    monkeypatch.setattr(bench, "build_edge_decomposition", forbidden)
    assert run_case(RunConfig(problem="maxwell", maxwell_cells=6, preconditioner="asp")).converged


def test_unknown_preconditioner_names_the_problem():
    with pytest.raises(StructuralError, match="unknown helmholtz preconditioner 'asp'"):
        run_case(RunConfig(f=1.0, ppwl=8, order=1, n_subdomains=2, preconditioner="asp"))
    with pytest.raises(StructuralError, match="unknown maxwell preconditioner 'grid'"):
        run_case(RunConfig(problem="maxwell", maxwell_cells=6, preconditioner="grid"))


def test_sweep_single_cell_matches_run_case():
    cfg = RunConfig(f=2.0, ppwl=8, order=1, n_subdomains=4,
                    preconditioner="one-level", dofs_floor=1)
    rows = run_sweep(cfg, [2.0], [4], ["one-level"])
    assert len(rows) == 1
    rep = run_case(cfg)
    assert rows[0]["iterations"] == rep.iterations


def test_sweep_grid_beats_one_level_rowwise():
    base = RunConfig(model="constant", ppwl=8, order=1, tol=1e-6,
                     dofs_floor=1, max_iter=400)
    rows = run_sweep(base, [1.0, 5.0], [4, 16], ["one-level", "grid"])
    assert len(rows) == 8
    table = {(r["f"], r["N"], r["method"]): r["iterations"] for r in rows}
    for f in (1.0, 5.0):
        for N in (4, 16):
            assert table[(f, N, "grid")] <= table[(f, N, "one-level")]


def test_sweep_skips_infeasible_cells():
    base = RunConfig(model="constant", ppwl=8, order=1, dofs_floor=10**7)
    rows = run_sweep(base, [1.0], [4], ["one-level"])
    assert rows[0]["iterations"] == "-"
    assert rows[0]["converged"] == "skipped"


def test_sweep_csv_shape_and_determinism(tmp_path):
    base = RunConfig(model="constant", ppwl=8, order=1, dofs_floor=1, seed=3)
    args = (base, [1.0, 2.0], [2, 4], ["one-level", "grid"])
    t1 = sweep_to_csv(run_sweep(*args), path=tmp_path / "a.csv")
    t2 = sweep_to_csv(run_sweep(*args), path=tmp_path / "b.csv")

    def strip_times(text):
        return ["\t".join(line.split(",")[:-2]) for line in text.splitlines()]

    assert strip_times(t1) == strip_times(t2)
    lines = t1.splitlines()
    assert lines[0].startswith("f,dofs,N,method,iterations")
    assert len(lines) == 1 + 2 * 2 * 2


def test_emit_dispersion_round_trip(tmp_path):
    specs = [DispersionSpec(p=2, scheme="fe", G=2.5),
             DispersionSpec(p=3, scheme="fe", G=2.5)]
    path = tmp_path / "disp.csv"
    text = emit_dispersion(specs, path=path, samples=10)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,p,inv_G,velocity"
    assert len(lines) == 1 + 2 * 10
    # p = 3 closer to 1 than p = 2 at matching 1/G samples
    import csv as _csv

    rows = list(_csv.DictReader(text.splitlines()))
    by_p = {}
    for r in rows:
        by_p.setdefault(int(r["p"]), {})[r["inv_G"]] = float(r["velocity"])
    for inv_g, v2 in by_p[2].items():
        if float(inv_g) <= 0.2:
            assert abs(by_p[3][inv_g] - 1) < abs(v2 - 1)


def test_sweep_workers_match_sequential():
    base = RunConfig(model="constant", ppwl=8, order=1, dofs_floor=1)
    args = (base, [1.0, 2.0], [2], ["one-level", "grid"])
    seq = run_sweep(*args)
    par = run_sweep(*args, workers=3)
    strip = lambda rows: [{k: v for k, v in r.items() if "time" not in k} for r in rows]
    assert strip(seq) == strip(par)


def test_estimate_dofs_close_to_actual():
    cfg = RunConfig(f=2.0, ppwl=8, order=2)
    rep = run_case(cfg)
    assert abs(estimate_dofs(cfg) - rep.n_dofs) <= 0.2 * rep.n_dofs


# --------------------------------------------------------------- CLI


def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "wavedd.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=_cli_env())


def _cli_env():
    """The environment with the repository's src first on PYTHONPATH: a
    child process does not inherit pytest's pythonpath setting."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_cli_run(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("f = 1.0\nppwl = 8\norder = 1\nn_subdomains = 1\n"
                       "preconditioner = one-level\ntol = 1e-08\n")
    out = _cli("run", str(cfgfile))
    assert out.returncode == 0
    assert "1 iterations" in out.stdout


def test_cli_run_with_override(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("f = 1.0\nppwl = 8\norder = 1\n")
    out = _cli("run", str(cfgfile), "--set", "n_subdomains=2",
               "--set", "preconditioner=one-level")
    assert out.returncode == 0


def test_cli_sweep_and_dispersion(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("model = constant\nppwl = 8\norder = 1\ndofs_floor = 1\n")
    out_csv = tmp_path / "sweep.csv"
    out = _cli("sweep", str(cfgfile), "--f", "1,2", "--n", "2",
               "--methods", "one-level", "--out", str(out_csv))
    assert out.returncode == 0
    assert out_csv.read_text().count("\n") == 3  # header + 2 rows

    disp_csv = tmp_path / "disp.csv"
    out = _cli("dispersion", "--orders", "2,3", "--schemes", "fe",
               "--samples", "5", "--out", str(disp_csv))
    assert out.returncode == 0
    assert disp_csv.exists()


def test_cli_structural_error_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense_key = 1\n")
    out = _cli("run", str(cfgfile))
    assert out.returncode == 2


def test_cli_nonpositive_max_iter_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("f = 1.0\nppwl = 8\norder = 1\nmax_iter = -3\n")
    out = _cli("run", str(cfgfile))
    assert out.returncode == 2
    assert "max_iter must be >= 1" in out.stderr


def test_cli_nonconverged_still_exits_zero(tmp_path):
    cfgfile = tmp_path / "hard.cfg"
    cfgfile.write_text("f = 4.0\nppwl = 8\norder = 1\nn_subdomains = 16\n"
                       "preconditioner = one-level\nmax_iter = 3\n")
    out = _cli("run", str(cfgfile))
    assert out.returncode == 0
    assert "NOT converged" in out.stdout


def test_cli_check_passes_in_process(capsys):
    """``wavedd check`` runs its five invariant checks on sparse matrices
    and passes them all."""
    from wavedd.cli import main

    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "5/5 checks passed" in out and "FAIL" not in out


def test_run_reports_rejected_eigenpairs(monkeypatch, capsys, tmp_path):
    """A pair that fails the residual contract in every H-GenEO subdomain
    reaches the report of ``run_case`` and the line that ``wavedd run``
    prints for it; a one-level run reports nothing and prints no line."""
    from wavedd.cli import main

    cfg = RunConfig(f=2.0, ppwl=8.0, order=1, n_subdomains=4, partition="strips",
                    preconditioner="hgeneo", m_max=6, max_iter=5)
    clean = run_case(cfg)
    assert clean.rejected == [0] * 4 and clean.flags == []
    real = np.linalg.eig

    def corrupting(T):
        w, v = real(T)
        v[:, np.argmax(np.abs(w))] = 1.0  # not an eigenvector
        return w, v

    monkeypatch.setattr(np.linalg, "eig", corrupting)
    rep = run_case(cfg)
    assert rep.rejected == [1] * 4 and rep.flags == []
    assert rep.coarse_dim == clean.coarse_dim
    one = run_case(replace(cfg, preconditioner="one-level"))
    assert one.rejected == [] and one.flags == []
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(render_config(cfg))
    assert main(["run", str(cfgfile)]) == 0
    assert "rejected eigenpairs=[1, 1, 1, 1] flagged subdomains=[]" in capsys.readouterr().out
    assert main(["run", str(cfgfile), "--set", "preconditioner=one-level"]) == 0
    assert "rejected" not in capsys.readouterr().out


def test_sweep_rows_report_rejected_pairs_and_flags(monkeypatch):
    """A sweep row carries the total of rejected eigenpairs and the flagged
    subdomains of its coarse space, in columns before the two timing
    columns; skipped and failed cells show "-" there."""
    from wavedd.bench import SWEEP_COLUMNS

    assert SWEEP_COLUMNS[-4:] == ("rejected", "flagged", "setup_time", "solve_time")
    base = RunConfig(f=2.0, ppwl=8.0, order=1, partition="strips", m_max=6,
                     max_iter=5, dofs_floor=1)
    real = np.linalg.eig

    def corrupting(T):
        w, v = real(T)
        v[:, np.argmax(np.abs(w))] = 1.0  # not an eigenvector
        return w, v

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eig", corrupting)
        hgeneo, one = run_sweep(base, [2.0], [4], ["hgeneo", "one-level"])
    assert (hgeneo["rejected"], hgeneo["flagged"]) == (4, "none")
    assert (one["rejected"], one["flagged"]) == (0, "none")
    skipped, = run_sweep(replace(base, dofs_floor=10**7), [2.0], [4], ["hgeneo"])
    failed, = run_sweep(base, [2.0], [4], ["no-such-method"])
    assert failed["converged"] == "error:StructuralError"
    for row in (skipped, failed):
        assert (row["rejected"], row["flagged"]) == ("-", "-")

    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    maxwell = replace(base, problem="maxwell", maxwell_cells=12, partition="grid:2x2",
                      tau=1.5, m_max=20, max_iter=500)
    row, = run_sweep(maxwell, [1.0], [4], ["geneo-complement"])
    assert (row["rejected"], row["flagged"]) == (0, "0 1 2 3")
    lines = sweep_to_csv([row]).splitlines()
    assert lines[0].endswith("converged,rejected,flagged,setup_time,solve_time")
    assert lines[1].split(",")[-4:-2] == ["0", "0 1 2 3"]


def test_failed_sweep_cell_keeps_its_message(monkeypatch):
    """A failed cell names the exception's class in ``converged`` and keeps
    the first line of its message in ``error``; the CSV quotes the message's
    commas and keeps the two timing columns last."""
    import wavedd.bench as bench

    def singular(cfg):
        raise SingularityError("pivot 1.2e-17, 3 of 40, below threshold\nsecond line")

    base = RunConfig(f=2.0, ppwl=8.0, order=1, dofs_floor=1)
    with monkeypatch.context() as m:
        m.setattr(bench, "run_case", singular)
        failed, = run_sweep(base, [2.0], [4], ["one-level"])
    assert failed["converged"] == "error:SingularityError"
    assert failed["error"] == "pivot 1.2e-17, 3 of 40, below threshold"
    header, row = sweep_to_csv([failed]).splitlines()
    assert header.endswith(",error,converged,rejected,flagged,setup_time,solve_time")
    assert row.endswith(',"pivot 1.2e-17, 3 of 40, below threshold",error:SingularityError,-,-,,')
    ok, = run_sweep(replace(base, max_iter=5), [2.0], [4], ["one-level"])
    skipped, = run_sweep(replace(base, dofs_floor=10**7), [2.0], [4], ["one-level"])
    assert ok["error"] == skipped["error"] == ""


def test_perfbench_entry_points_resolve():
    """Every library name that the traced benchmark patches exists where it
    patches it, so that dropping an import breaks this test, not the trace."""
    import importlib

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        from perfbench.tracing import LIBRARY_ENTRY_POINTS
    finally:
        sys.path.pop(0)
    names = [(m, attr) for m, attr, _ in LIBRARY_ENTRY_POINTS]
    for module, attr in names + [("schwarz", "CoarseSpace"), ("maxwell", "CoarseSpace")]:
        assert callable(getattr(importlib.import_module(f"wavedd.{module}"), attr))
