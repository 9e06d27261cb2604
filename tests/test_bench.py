"""Benchmark driver: configs, sweeps, CSV output, CLI."""

import os
import re
import subprocess
import sys
from dataclasses import fields, replace

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


@pytest.mark.parametrize("mode,message", [("bogus", "unknown overlap mode"),
                                          ("coarse", "coarse overlap needs a refined mesh")])
def test_maxwell_run_honours_overlap_mode(mode, message):
    """A Maxwell run hands ``overlap_mode`` to its edge decomposition: an
    unknown mode is rejected, and "coarse" needs a refined mesh, which the
    Maxwell mesh is not."""
    cfg = RunConfig(problem="maxwell", maxwell_cells=8, n_subdomains=4, overlap_mode=mode)
    with pytest.raises(StructuralError, match=message):
        run_case(cfg)


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


def test_unknown_preconditioner_is_rejected_before_any_set_up(monkeypatch):
    from wavedd import bench

    def forbidden(*args, **kwargs):
        raise AssertionError("set-up ran for an unknown preconditioner")

    monkeypatch.setattr(bench, "assemble_helmholtz", forbidden)
    monkeypatch.setattr(bench, "build_edge_decomposition", forbidden)
    monkeypatch.setattr(bench, "assemble_maxwell", forbidden)
    with pytest.raises(StructuralError, match="unknown helmholtz preconditioner 'hgenoe'"):
        run_case(RunConfig(f=8.0, ppwl=8, order=2, n_subdomains=8, preconditioner="hgenoe"))
    with pytest.raises(StructuralError, match="unknown maxwell preconditioner 'grid'"):
        run_case(RunConfig(problem="maxwell", preconditioner="grid"))


def test_method_names_are_those_the_set_up_serves():
    """Every name that passes the early check is served: ASP for Maxwell,
    "one-level", and one coarse-space builder per two-level method."""
    from wavedd import bench

    helm = RunConfig(f=1.0, ppwl=8, order=1, n_subdomains=2)
    maxw = RunConfig(problem="maxwell", maxwell_cells=6, n_subdomains=2)
    assert set(bench._METHODS["helmholtz"]) == {"one-level", *bench._helmholtz(helm)[2]}
    assert set(bench._METHODS["maxwell"]) == {"asp", "one-level", *bench._maxwell(maxw)[2]}


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


@pytest.mark.parametrize("text,sets,named", [
    ("ppwl = eight\n", [], "'eight'"),
    ("ppwl = 8\n", ["max_iter=abc"], "max_iter: 'abc'"),
    ("ppwl = 8\n", ["f=abc"], "f: 'abc'"),
    ("ppwl = 8\n", ["partition=grid:3"], "'grid:3'"),
    ("ppwl = 8\n", ["partition=grid:axb"], "'grid:axb'"),
    ("ppwl = 8\n", ["n_subdomains=0"], "n_subdomains must be >= 1"),
], ids=["file-ppwl", "max_iter", "f", "grid-one-count", "grid-letters", "zero-subdomains"])
def test_cli_malformed_config_value_exits_2(tmp_path, capsys, text, sets, named):
    """A config value that does not parse, a partition not of the form
    grid:PXxPY and a subdomain count below 1 are structural errors: exit 2
    with a message naming the value, no traceback."""
    from wavedd.cli import main

    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("f = 1.0\norder = 1\n" + text)
    argv = ["run", str(cfgfile)] + [arg for kv in sets for arg in ("--set", kv)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("f,n,named", [("abc", "2", "--f expects"), ("1", "2.5", "--n expects")])
def test_cli_sweep_malformed_list_exits_2(tmp_path, capsys, f, n, named):
    """A ``--f`` value that is not a float, or a ``--n`` value that is not
    an int, is a structural error: exit 2 with an error line naming the
    flag, no traceback."""
    from wavedd.cli import main

    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("ppwl = 8\norder = 1\n")
    assert main(["sweep", str(cfgfile), "--f", f, "--n", n, "--methods", "one-level"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + named) and "Traceback" not in err


def test_cli_dispersion_malformed_orders_exits_2(capsys):
    """An ``--orders`` value that is not an int is a structural error: exit
    2 with an error line naming the flag, no traceback."""
    from wavedd.cli import main

    assert main(["dispersion", "--orders", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --orders expects") and "Traceback" not in err


def test_readme_config_table_lists_every_config_field():
    """The README's config table names exactly the fields of ``RunConfig``,
    each once."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = fh.read()
    table = text.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
    keys = [k for row in table.splitlines()[2:]
            for k in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


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


def test_fingerprint_compare_fails_on_counts_not_on_residuals():
    """``scripts/fingerprint.py``: a final residual that differs is listed as
    information, while a digest or an iteration count that differs fails."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "fingerprint.py")
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    old = {"workloads": {"w": {"iterations": {"m": [18, 16]}, "residuals": {"m": [5e-7, 9.86e-7]},
                               "coarse_spaces": {"cs": {"E.data": "<f8:ab"}}}}}
    new = {"workloads": {"w": {"iterations": {"m": [18, 16]}, "residuals": {"m": [5e-7, 9.84e-7]},
                               "coarse_spaces": {"cs": {"E.data": "<f8:ab"}}}}}
    fail, info = fingerprint.differences(new, old)
    assert fail == [] and info == ["workloads/w/residuals/m: [5.0000e-07, 9.8600e-07] -> "
                                   "[5.0000e-07, 9.8400e-07]"]
    new["workloads"]["w"]["iterations"]["m"] = [18, 17]
    new["workloads"]["w"]["coarse_spaces"]["cs"]["E.data"] = "<f8:cd"
    fail, _ = fingerprint.differences(new, old)
    assert fail == ["workloads/w/coarse_spaces/cs/E.data: <f8:ab -> <f8:cd",
                    "workloads/w/iterations/m: [18, 16] -> [18, 17]"]
