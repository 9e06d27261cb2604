"""One benchmark run: repeated set-up, warm-up, timed rounds, checks and the
metrics of the run."""
from __future__ import annotations

import gc
import resource
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from wavedd.linalg import krylov_solve

from . import checks
from .tracing import Tracer, instrument_library
from .workloads import TOL, seeded_loads

BLOCKS = 3  # set-ups per run, each followed by its share of the timed rounds

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_solution_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (kind, span name); kinds are explained in _per_layer
SPAN_METRICS = {
    "mesh.build_s": ("setup_s", "mesh.build"),
    "helmholtz.assemble_s": ("setup_s", "helmholtz.assemble"),
    "decomposition.decompose_s": ("setup_s", "decomposition.decompose"),
    "decomposition.local_setup_s": ("setup_s", "decomposition.local_setup"),
    "linalg.lu_s": ("setup_s", "linalg.lu_factorize"),
    "linalg.lu_calls": ("setup_calls", "linalg.lu_factorize"),
    "schwarz.one_level_apply_ms": ("call_ms", "schwarz.one_level_apply"),
    "linalg.operator_apply_ms": ("call_ms", "linalg.operator_apply"),
    "linalg.krylov_self_ms_per_iter": ("self_ms_per_iter", "linalg.krylov_solve"),
    "schwarz.grid_cs_s": ("setup_s", "schwarz.grid_cs"),
    "schwarz.dtn_cs_s": ("setup_s", "schwarz.dtn_cs"),
    "schwarz.hgeneo_cs_s": ("setup_s", "schwarz.hgeneo_cs"),
    "linalg.eig_s": ("setup_s", "linalg.dense_generalized_eig"),
    "linalg.eig_calls": ("setup_calls", "linalg.dense_generalized_eig"),
    "linalg.orthonormalize_s": ("setup_s", "linalg.orthonormalize"),
    "schwarz.coarse_factor_s": ("setup_s", "schwarz.coarse_factor"),
    "schwarz.coarse_apply_ms": ("call_ms", "schwarz.coarse_apply"),
    "schwarz.coarse_apply_calls": ("round_calls", "schwarz.coarse_apply"),
    "maxwell.assemble_s": ("setup_s", "maxwell.assemble"),
    "maxwell.edge_decomposition_s": ("setup_s", "maxwell.edge_decomposition"),
    "maxwell.free_cs_s": ("setup_s", "maxwell.free_cs"),
    "maxwell.geneo_cs_s": ("setup_s", "maxwell.geneo_cs"),
    "maxwell.one_level_apply_ms": ("call_ms", "maxwell.one_level_apply"),
}
HELMHOLTZ_METHODS = ("one-level", "grid", "dtn", "hgeneo")
MAXWELL_METHODS = ("maxwell-one-level", "maxwell-two-level")
VALUE_METRICS = (
    ["schwarz.coarse_basis_mb", "maxwell.coarse_basis_mb"]
    + [f"schwarz.coarse_dim.{m}" for m in HELMHOLTZ_METHODS[1:]]
    + ["maxwell.coarse_dim"]
)
ITERATION_METRICS = [f"linalg.iterations.{m}" for m in HELMHOLTZ_METHODS + MAXWELL_METHODS]
PER_LAYER = list(SPAN_METRICS) + VALUE_METRICS + ITERATION_METRICS


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or name.endswith("_ms_per_iter"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class _SolveRecord:
    method: str
    load: int
    iterations: int = 0
    seconds: float = 0.0
    ok: bool = False
    error: str | None = None


def _run_round(tr: Tracer, methods, loads, A, keep: dict | None) -> list:
    records = []
    for i, b in enumerate(loads):
        for m in methods:
            rec = _SolveRecord(m.name, i)
            with tr.span("linalg.krylov_solve") as idx:
                try:
                    x, rep = krylov_solve(m.A, m.M, b, m.cfg)
                except Exception:  # a raising solve is a failed operation
                    x, rep = None, None
                    rec.error = traceback.format_exc()
            rec.seconds = tr.duration(idx)
            if rep is not None:
                rec.iterations = rep.iterations
                rec.ok = rep.converged and checks.residual_ok(A, x, b, m.cfg.tol)
                if keep is not None and i == 0:
                    keep[m.name] = x
            records.append(rec)
    return records


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    """``BLOCKS`` times: set up, warm up, and solve whole rounds for about
    ``seconds / BLOCKS``; then check.  Spreading the set-ups and rounds over
    the whole run keeps a slow spell of the machine from landing on one
    phase only."""
    tr = Tracer()
    if traced:
        with instrument_library(tr):
            return _run(workload, seed, seconds, traced, tr)
    return _run(workload, seed, seconds, traced, tr)


def _run(workload, seed, seconds, traced, tr: Tracer) -> dict:
    setup_times, setup_roots, coarse_dims = [], [], []
    rounds, round_roots, first_solutions = [], [], {}
    for _ in range(BLOCKS):
        st = methods = None
        gc.collect()
        with tr.span("setup") as idx:
            st = workload.setup(tr)
        setup_times.append(tr.duration(idx))
        setup_roots.append(idx)
        coarse_dims.append({k: cs.n0 for k, cs in st.coarse_spaces.items()})

        loads = seeded_loads(workload.loads(st), np.random.default_rng(seed))
        methods = workload.methods(st, tr, traced)
        with tr.span("warmup"):
            st.system.A.matvec(loads[0])
            for m in methods:
                m.M(loads[0])

        # whole rounds, as many as come closest to this block's share of
        # ``seconds``, and at least one
        t0 = perf_counter()
        block_rounds = 0
        while True:
            with tr.span("round") as idx:
                rounds.append(_run_round(tr, methods, loads, st.A,
                                         first_solutions if not rounds else None))
            round_roots.append(idx)
            block_rounds += 1
            elapsed = perf_counter() - t0
            if elapsed + 0.5 * elapsed / block_rounds >= seconds / BLOCKS:
                break
    peak_rss = _peak_rss_mb()

    # ---- checks made once per run, apart from the library
    failures = []
    per_round = [[r.iterations for r in rnd] for rnd in rounds]
    if not checks.rounds_identical(per_round):
        failures.append("iterations differ between rounds")
    if any(d != coarse_dims[0] for d in coarse_dims):
        failures.append("coarse dimensions differ between set-ups")
    if not checks.pou_sums_to_one(st.dec):
        failures.append("partition of unity does not sum to 1")
    check_rng = np.random.default_rng(seed)
    for name, cs in st.coarse_spaces.items():
        if not checks.coarse_reproduces_span(cs, st.A, check_rng):
            failures.append(f"{name}: H A Z c != Z c")

    # per (method, load) verdicts; rounds are identical, so each verdict
    # holds for every round
    bad = set()
    direct = checks.DirectReference(st.A)
    direct_errors = {}
    for name, x in first_solutions.items():
        direct_errors[name] = direct.error(x, loads[0])
        if direct_errors[name] > direct.error_bound(TOL):
            bad.add((name, 0))
    iters = {(r.method, r.load): r.iterations for r in rounds[0]}
    for m in methods:
        if m.baseline is None:
            continue
        for i in range(len(loads)):
            if not checks.fewer_iterations(iters[(m.name, i)], iters[(m.baseline, i)]):
                bad.add((m.name, i))

    attempted = failed = 0
    errors = []
    for rnd in rounds:
        for r in rnd:
            attempted += 1
            if not r.ok or (r.method, r.load) in bad:
                failed += 1
                if r.error and r.error not in errors:
                    errors.append(r.error)

    round_seconds = [sum(r.seconds for r in rnd) for rnd in rounds]
    setup_s = _median(setup_times)
    solve_s = _median(round_seconds)
    end_to_end = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "time_to_solution_s": setup_s + solve_s,
        "iterations": sum(per_round[0]),
        "peak_rss_mb": peak_rss,
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "correct": not failures,
        "check_failures": failures,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "setup_seconds": setup_times,
        "round_seconds": round_seconds,
        "iterations_per_round": {f"{r.method}[{r.load}]": r.iterations for r in rounds[0]},
        "direct_kappa1": direct.kappa1,
        "direct_error_bound": direct.error_bound(TOL),
        "direct_errors": direct_errors,
        "end_to_end": end_to_end,
    }
    if traced:
        result["per_layer"] = _per_layer(tr, setup_roots, round_roots, rounds,
                                         workload.layer_values(st))
        result["spans"] = tr.to_json()
    return result


def _per_layer(tr: Tracer, setup_roots, round_roots, rounds, values) -> dict:
    """Per-layer metrics from the spans.

    setup_s / setup_calls: total time / calls under one set-up, median over
    the set-ups; call_ms: mean duration of one call in the timed rounds, so
    that each kind of call (say, each coarse space) weighs by its time;
    round_calls: calls per round (median over rounds); self_ms_per_iter:
    Krylov time minus the time of its direct children (preconditioner and
    operator), per iteration, over all rounds.
    """
    root = tr.roots()
    round_set = set(round_roots)
    child_time = [0.0] * len(tr.spans)
    for i, (_, s, e, parent) in enumerate(tr.spans):
        if parent >= 0:
            child_time[parent] += e - s

    out = {}
    for metric, (kind, span_name) in SPAN_METRICS.items():
        idxs = [i for i, sp in enumerate(tr.spans) if sp[0] == span_name]
        if kind in ("setup_s", "setup_calls"):
            per_setup = []
            for r in setup_roots:
                mine = [i for i in idxs if root[i] == r]
                per_setup.append(sum(tr.duration(i) for i in mine)
                                 if kind == "setup_s" else len(mine))
            out[metric] = _median(per_setup)
        elif kind == "call_ms":
            calls = [tr.duration(i) for i in idxs if root[i] in round_set]
            out[metric] = 1e3 * sum(calls) / len(calls) if calls else 0.0
        elif kind == "round_calls":
            out[metric] = _median(
                sum(1 for i in idxs if root[i] == r) for r in round_roots)
        else:  # self_ms_per_iter
            self_time = sum(tr.duration(i) - child_time[i]
                            for i in idxs if root[i] in round_set)
            iterations = sum(r.iterations for rnd in rounds for r in rnd)
            out[metric] = 1e3 * self_time / iterations if iterations else 0.0
    for metric in VALUE_METRICS:
        out[metric] = float(values.get(metric, 0))
    for method in HELMHOLTZ_METHODS + MAXWELL_METHODS:
        out[f"linalg.iterations.{method}"] = sum(
            r.iterations for r in rounds[0] if r.method == method)
    return out
