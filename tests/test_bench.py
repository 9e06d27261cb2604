"""Benchmark driver: configs, sweeps, CSV output, CLI."""

import os
import re
import subprocess
import sys
import weakref
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
from wavedd.errors import NumericError, SingularityError, StructuralError


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


def _forbid_set_up(monkeypatch, why):
    from wavedd import bench

    def forbidden(*args, **kwargs):
        raise AssertionError(why)

    for name in ("assemble_helmholtz", "assemble_maxwell", "build_rect_mesh"):
        monkeypatch.setattr(bench, name, forbidden)


@pytest.mark.parametrize("name,value", [("lambda_min", np.nan), ("tau", np.nan),
                                        ("dtn_threshold", np.nan), ("m_max", -1)])
def test_malformed_selection_is_rejected_before_any_set_up(monkeypatch, name, value):
    """A NaN selection threshold or a negative m_max is a StructuralError of
    ``RunConfig``, before any mesh or assembly, for either problem; None
    (where the field allows it), +-inf and m_max = 0 stay legal."""
    _forbid_set_up(monkeypatch, "set-up ran for a malformed selection")
    for problem, method in (("helmholtz", "deltageneo"), ("maxwell", "geneo-complement")):
        with pytest.raises(StructuralError, match=f"{name}"):
            run_case(RunConfig(problem=problem, preconditioner=method, **{name: value}))
    legal = (0,) if name == "m_max" else (np.inf, -np.inf)
    for value in legal + ((None,) if name == "dtn_threshold" else ()):
        assert getattr(RunConfig(**{name: value}), name) == value


@pytest.mark.parametrize("changes,named", [
    (dict(partition="grid:3"), "partition 'grid:3' is not grid:PXxPY"),
    (dict(overlap_mode="bogus"), "unknown overlap mode 'bogus'"),
    (dict(overlap_layers=0), "minimum overlap needs layers >= 1"),
    (dict(two_level_mode="foo"), "unknown two-level mode 'foo'"),
], ids=["partition", "overlap-mode", "overlap-layers", "two-level-mode"])
def test_malformed_partition_overlap_or_mode_is_rejected_before_the_assembly(
        monkeypatch, changes, named):
    """A malformed partition or overlap is rejected by the decomposition,
    which runs before the global assembly, and an unknown two-level mode by
    ``RunConfig``: none of them waits for the local factors and the coarse
    build that the mode would combine."""
    from wavedd import bench

    def forbidden(*args, **kwargs):
        raise AssertionError("the global assembly ran for a malformed config")

    monkeypatch.setattr(bench, "assemble_helmholtz", forbidden)
    with pytest.raises(StructuralError, match=named):
        run_case(RunConfig(f=2.0, ppwl=8, preconditioner="hgeneo", **changes))


@pytest.mark.parametrize("method", ["asp", "one-level"])
@pytest.mark.parametrize("changes,named", [
    (dict(partition="grid:3"), "partition 'grid:3' is not grid:PXxPY"),
    (dict(overlap_mode="bogus"), "unknown overlap mode 'bogus'"),
    (dict(overlap_layers=0), "minimum overlap needs layers >= 1"),
    (dict(overlap_mode="coarse"), "coarse overlap needs a refined mesh"),
], ids=["partition", "overlap-mode", "overlap-layers", "coarse-overlap"])
def test_malformed_maxwell_partition_or_overlap_is_rejected_before_the_assembly(
        monkeypatch, method, changes, named):
    """A Maxwell run parses its partition and checks its overlap on the
    unrefined Maxwell mesh before the global assembly, for every method:
    ASP, which builds no decomposition, does not ignore them."""
    from wavedd import bench

    def forbidden(*args, **kwargs):
        raise AssertionError("the global assembly ran for a malformed config")

    monkeypatch.setattr(bench, "assemble_maxwell", forbidden)
    with pytest.raises(StructuralError, match=named):
        run_case(RunConfig(problem="maxwell", maxwell_cells=6, preconditioner=method,
                           **changes))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("changes", [
    dict(problem="maxwell", maxwell_cells=6, c=1e300, alpha=1e300),
    dict(width=1e-300),
], ids=["maxwell-overflowing-coefficients", "helmholtz-degenerate-elements"])
def test_non_finite_assembled_values_are_named(changes):
    """An assembled matrix with inf or NaN entries (alpha * eps_r overflows,
    or elements 1e-300 km wide) is a StructuralError that names them, not a
    symmetry fault."""
    with pytest.raises(StructuralError, match="non-finite entries"):
        run_case(RunConfig(**changes))


@pytest.mark.parametrize("changes,named", [
    (dict(c=1e-300), "more DOFs than the sparse index range holds"),
    (dict(c=1e-320), "cell counts inf x inf are not finite"),
    (dict(problem="maxwell", maxwell_cells=30000), "more DOFs than the sparse index range"),
], ids=["c-tiny", "c-denormal", "maxwell-cells"])
def test_a_mesh_that_cannot_be_built_is_rejected_before_any_set_up(monkeypatch, changes,
                                                                   named):
    """``estimate_dofs`` rejects a mesh whose cell counts are not finite or
    whose DOF count exceeds 2**31 - 1, the int32 index range of SuperLU and
    scipy, and ``run_case`` calls it before any mesh or assembly."""
    cfg = RunConfig(**changes)
    with pytest.raises(StructuralError, match=named):
        estimate_dofs(cfg)
    _forbid_set_up(monkeypatch, "set-up ran for a mesh that cannot be built")
    with pytest.raises(StructuralError, match=named):
        run_case(cfg)


def test_sweep_cell_whose_mesh_cannot_be_built_fails_alone():
    """A sweep cell whose mesh ``estimate_dofs`` rejects fails with
    ``error:StructuralError`` and "-" for dofs, and the sweep goes on."""
    base = RunConfig(ppwl=8, order=1, dofs_floor=1)
    rows = run_sweep(base, [1e308, 1e300, 1.0], [2], ["one-level"])
    assert [r["converged"] for r in rows] == ["error:StructuralError"] * 2 + [True]
    assert [r["dofs"] for r in rows[:2]] == ["-", "-"]
    assert "not finite" in rows[0]["error"] and "sparse index range" in rows[1]["error"]
    for c in (1e-300, 1e-320):
        rows = run_sweep(replace(base, c=c), [1.0, 2.0], [2], ["one-level"])
        assert [r["converged"] for r in rows] == ["error:StructuralError"] * 2


@pytest.mark.parametrize("cfg", [
    RunConfig(f=1.0, ppwl=8, order=1, n_subdomains=2),
    RunConfig(f=1.0, ppwl=8, order=1, n_subdomains=2, preconditioner="dtn"),
    RunConfig(problem="maxwell", maxwell_cells=6, n_subdomains=2),
    RunConfig(problem="maxwell", maxwell_cells=6, n_subdomains=2,
              preconditioner="geneo-complement"),
], ids=["helmholtz-one-level", "helmholtz-dtn", "maxwell-one-level", "maxwell-geneo"])
def test_run_case_drops_the_decomposition_before_the_solve(monkeypatch, cfg):
    """When ``krylov_solve`` starts, the decomposition of the set-up is dead:
    the preconditioner keeps only what its apply reads."""
    from wavedd import bench

    refs, alive = [], []
    for name in ("decompose", "build_edge_decomposition"):
        def recording(*args, _real=getattr(bench, name), **kwargs):
            dec = _real(*args, **kwargs)
            refs.append(weakref.ref(dec))
            return dec

        monkeypatch.setattr(bench, name, recording)
    real_solve = bench.krylov_solve

    def solve(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bench, "krylov_solve", solve)
    assert run_case(cfg).converged
    assert alive == [[False]]


def test_auto_partition_takes_the_divisor_pair_nearest_the_aspect():
    """"auto" picks the first px, in ascending order, of the divisor pairs
    px * py = N whose ratio px / py is nearest the domain's aspect, strips
    when px or py is 1; it visits only the divisors, so a huge N is parsed
    at once and left to the decomposition to reject."""
    from wavedd import bench

    for N in range(1, 200):
        for width in (1.0, 2.0, 0.3):
            err = {px: abs(np.log(px / (N // px) / width))
                   for px in range(1, N + 1) if N % px == 0}
            px = N if err[N] <= min(err.values()) else min(err, key=err.get)
            want = ("strips", None) if 1 in (px, N // px) else ("grid", (px, N // px))
            assert bench._partition_args(RunConfig(n_subdomains=N, width=width)) == want
    assert bench._partition_args(RunConfig(n_subdomains=10**9)) == ("grid", (31250, 32000))


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
    """The estimate is the DOF count of the solved system: for Maxwell the
    3n^2 - 2n interior edges of an n x n mesh, so that a skipped sweep row
    and a solved one give the same ``dofs``."""
    for cfg in (RunConfig(problem="maxwell", maxwell_cells=4, n_subdomains=2),
                RunConfig(problem="maxwell", maxwell_cells=12, n_subdomains=2),
                RunConfig(f=2.0, ppwl=8, order=1),
                RunConfig(f=2.0, ppwl=8, order=2)):
        assert estimate_dofs(cfg) == run_case(cfg).n_dofs


def test_a_run_reads_its_raster_model_once(monkeypatch, tmp_path):
    """``run_case`` reads a raster velocity file once, and a sweep cell twice:
    once for the ``dofs_floor`` estimate and once for the run."""
    from wavedd import bench
    from wavedd.velocity import save_raster_model

    path = tmp_path / "model.vel"
    save_raster_model(path, np.array([[1.0, 1.5], [2.0, 2.5]]), (0, 1, 0, 1))
    reads = []

    def counting(*args, _real=bench.load_raster_model, **kwargs):
        reads.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(bench, "load_raster_model", counting)
    cfg = RunConfig(model=f"raster:{path}", ppwl=6, order=1, n_subdomains=2)
    assert run_case(cfg).converged
    assert len(reads) == 1
    row, = run_sweep(replace(cfg, dofs_floor=1), [1.0], [2], ["one-level"])
    assert row["converged"] is True and len(reads) == 3


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


def test_cli_numerical_failure_exits_3(tmp_path):
    """A numerical failure of ``run`` ends in exit 3 with its message on
    stderr, not in a traceback: here CG breaks down on a Maxwell system
    whose mass shift alpha = 1e-300 leaves A singular to rounding."""
    cfgfile = tmp_path / "breakdown.cfg"
    cfgfile.write_text("problem = maxwell\npreconditioner = asp\nmaxwell_cells = 2\n"
                       "alpha = 1e-300\n")
    out = _cli("run", str(cfgfile))
    assert out.returncode == 3
    assert "error: CG breakdown at iteration 1" in out.stderr
    assert "Traceback" not in out.stdout + out.stderr


def test_cli_singular_matrix_exits_3(tmp_path, capsys, monkeypatch):
    from wavedd import cli

    def singular(cfg):
        raise SingularityError("pivot 0.000e+00 below threshold")

    monkeypatch.setattr(cli, "run_case", singular)
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("ppwl = 8\n")
    assert cli.main(["run", str(cfgfile)]) == 3
    assert capsys.readouterr().err == "error: pivot 0.000e+00 below threshold\n"


_HELMHOLTZ = "ppwl = 8\nn_subdomains = 4\n"
_CHANNEL = "problem = maxwell\nmodel = channel\nmaxwell_cells = 8\nn_subdomains = 4\n"


@pytest.mark.parametrize("text,sets,named", [
    ("ppwl = eight\n", [], "'eight'"),
    ("ppwl = 8\n", ["max_iter=abc"], "max_iter: 'abc'"),
    ("ppwl = 8\n", ["f=abc"], "f: 'abc'"),
    ("ppwl = 8\n", ["partition=grid:3"], "'grid:3'"),
    ("ppwl = 8\n", ["partition=grid:axb"], "'grid:axb'"),
    ("ppwl = 8\n", ["n_subdomains=0"], "n_subdomains must be >= 1"),
    ("ppwl = 8\n", ["f=none"], "f cannot be none"),
    ("ppwl = 8\n", ["model=none"], "model cannot be none"),
    ("ppwl = 8\n", ["n_subdomains=none"], "n_subdomains cannot be none"),
    ("ppwl = none\n", [], "ppwl cannot be none"),
    *((f"problem = maxwell\nmodel = channel\ncontrast = {c}\n", [],
       "contrast must be finite and positive") for c in ("0", "-2", "nan", "inf")),
    ("ppwl = 8\n", ["f=nan"], "f must be finite and positive"),
    ("ppwl = inf\n", [], "ppwl must be finite and positive"),
    ("height = nan\n", [], "height must be finite and positive"),
    (_HELMHOLTZ + "preconditioner = deltageneo\n", ["lambda_min=nan"],
     "threshold must not be NaN"),
    (_HELMHOLTZ + "preconditioner = dtn\n", ["dtn_threshold=nan"], "threshold must not be NaN"),
    (_CHANNEL + "preconditioner = geneo-complement\n", ["tau=nan"], "threshold must not be NaN"),
    (_HELMHOLTZ, ["source_x=nan"], "source coordinates must be finite"),
    (_HELMHOLTZ, ["source_y=inf"], "source coordinates must be finite"),
    (_CHANNEL, ["channel_width=nan"], "width_frac must be finite and positive"),
    (_CHANNEL, ["channel_width=0"], "width_frac must be finite and positive"),
    (_CHANNEL, ["n_channels=-1"], "n_channels must be nonnegative"),
    (_HELMHOLTZ + "preconditioner = hgeneo\n", ["m_max=-1"], "m_max must be nonnegative"),
    (_HELMHOLTZ, ["c=1e-300"], "more DOFs than the sparse index range holds"),
    (_HELMHOLTZ, ["c=1e-320"], "cell counts inf x inf are not finite"),
], ids=["file-ppwl", "max_iter", "f", "grid-one-count", "grid-letters", "zero-subdomains",
        "none-f", "none-model", "none-subdomains", "none-ppwl",
        "contrast-0", "contrast-negative", "contrast-nan", "contrast-inf", "f-nan", "ppwl-inf",
        "height-nan", "lambda_min-nan", "dtn_threshold-nan", "tau-nan", "source_x-nan",
        "source_y-inf", "channel_width-nan", "channel_width-0", "n_channels-negative",
        "m_max-negative", "c-tiny", "c-denormal"])
def test_cli_malformed_config_value_exits_2(tmp_path, capsys, text, sets, named):
    """A config value that does not parse, ``none`` for a field whose type
    does not allow None, an f, ppwl, contrast, width or height that is not
    finite and positive, a partition not of the form grid:PXxPY and a
    subdomain count below 1 are structural errors: exit 2 with a message
    naming the value, no traceback.  So are values that would run another
    method or medium than the one asked for: a NaN selection threshold
    (which selects no coarse mode, so a two-level run is one-level), a
    non-finite source coordinate (which puts the source on DOF 0), and a
    negative channel count or a channel width that is not finite and
    positive (a medium without channels).  So is a mesh that cannot be
    built: cell counts that are not finite, or more DOFs than a sparse
    index holds."""
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


# --------------------------------------------------------------- robustness

_EDGE = (0.0, -1.0, np.inf, -np.inf, 1e-300)
# per field, (values of a small config, edge values)
_HELMHOLTZ_FIELDS = dict(
    model=(["constant", "wedge"], ["channel", "raster"]),
    c=([1.0, 2.5], (1e300,) + _EDGE),
    contrast=([1.0, 4.0], (1e300, np.nan) + _EDGE),
    f=([0.5, 1.0, 2.0], _EDGE),
    ppwl=([4.0, 6.0], (1e300,) + _EDGE),
    order=([1, 2], [0, 3]),
    width=([1.0, 0.5], _EDGE),
    source_x=([None, 0.3], (5.0, np.nan) + _EDGE),
    n_subdomains=([1, 2, 4], [0, -1, 10**9]),
    partition=(["auto", "strips", "grid:2x2"], ["grid:3", "grid:0x2", "grid:axb", "bogus"]),
    overlap_mode=(["minimum", "coarse"], ["bogus"]),
    overlap_layers=([1, 2], [0, -1]),
    preconditioner=(["one-level", "grid", "dtn", "hgeneo", "deltageneo"], ["asp", "bogus"]),
    two_level_mode=(["hybrid", "additive"], ["foo"]),
    coarse_refine=([1, 2], [0, -1]),
    lambda_min=([0.5], (np.nan,) + _EDGE),
    m_max=([4, 10], [0, -1, 10**9]),
    dtn_threshold=([None, 2.0], (np.nan,) + _EDGE),
    tol=([1e-6], (0.5, 1.0, 1e-300) + _EDGE),
    max_iter=([200], [1, 0, -1]),
    restart=([None, 10], [1, 0, -1, 10**9]),
)
_MAXWELL_FIELDS = dict(
    problem=(["maxwell"], []),
    model=(["constant", "channel"], ["wedge"]),
    c=([1.0], (1e300,) + _EDGE),
    contrast=([1.0, 1e4], (1e300,) + _EDGE),
    maxwell_cells=([4, 6, 10], [1, 0, -1, 10**9]),
    alpha=([1e-2, 1.0], (1e300,) + _EDGE),
    n_channels=([2, 4], [0, -1, 100]),
    channel_width=([0.04, 0.1], (0.3, 10.0) + _EDGE),
    random_source=([False, True], []),
    n_subdomains=([1, 2, 4], [0, -1, 10**9]),
    partition=(["auto", "strips", "grid:2x2"], ["grid:3", "bogus"]),
    overlap_mode=(["minimum"], ["coarse", "bogus"]),
    overlap_layers=([1, 2], [0, -1]),
    preconditioner=(["asp", "one-level", "free-cs", "geneo-complement"], ["grid", "bogus"]),
    two_level_mode=(["hybrid", "additive"], ["foo"]),
    tau=([10.0, 2.0], (np.nan,) + _EDGE),
    m_max=([4, 10], [0, -1, 10**9]),
    tol=([1e-6], (1e-300,) + _EDGE),
    max_iter=([200], [1, 0, -1]),
)


@st.composite
def _edge_configs(draw):
    """The fields of a small config of either physics, with up to three of
    them set to edge values."""
    table = draw(st.sampled_from([_HELMHOLTZ_FIELDS, _MAXWELL_FIELDS]))
    changes = {name: draw(st.sampled_from(ok)) for name, (ok, _) in table.items()}
    edged = sorted(name for name, (_, edge) in table.items() if edge)
    for name in draw(st.lists(st.sampled_from(edged), max_size=3, unique=True)):
        changes[name] = draw(st.sampled_from(table[name][1]))
    return changes


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=600, deadline=None, derandomize=True)
@given(_edge_configs())
def test_run_case_has_a_defined_outcome_on_edge_values(changes):
    """Over small configs of both physics with edge values (zero, negative,
    +-inf, 1e-300, NaN, huge counts, malformed partitions, zero overlap,
    m_max = -1, an unknown two-level mode), ``run_case`` either returns a
    report, converged or not, or raises a ``wavedd.errors`` type; any other
    exception fails.  A config whose mesh has more than 3,000 DOFs is not
    run."""
    try:
        cfg = RunConfig(**changes)
        if estimate_dofs(cfg) > 3000:
            return
        rep = run_case(cfg)
    except (StructuralError, SingularityError, NumericError):
        return
    assert rep.converged in (True, False) and rep.iterations <= cfg.max_iter
