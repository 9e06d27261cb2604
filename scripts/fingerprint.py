#!/usr/bin/env python3
"""Fingerprint of the benchmark's coarse spaces and iteration counts, to show
that a change leaves them bit for bit as they were.

    python3 scripts/fingerprint.py --out new.json
    python3 scripts/fingerprint.py --root ../parent --out old.json
    python3 scripts/fingerprint.py --out new.json --compare old.json
    python3 scripts/fingerprint.py --only wedge-spectral --out new.json --compare old.json

The JSON holds, for every coarse space of the full-size set-ups of the three
``perfbench`` workloads and for the free and GenEO-complement spaces of the
48-cell channels of acceptance criterion 8 (contrast 1, 1e2 and 1e4), the
sha256 digests of the data, indices and indptr of Z and of E, with n0,
``per_subdomain``, ``flags`` and ``rejected``; and the iteration count and
final relative residual of every solve of one round of each workload, its
loads in their unseeded order.  The residuals show how close each solve
stopped to its tolerance.  ``--root`` names the checkout whose ``src/`` and
``perfbench/`` are imported (default: the one holding this script).
``--compare`` lists every entry that differs from another fingerprint and
exits with status 1 if one does; residuals that differ are listed as
information only, and do not fail the comparison.
``--only NAME``, repeatable, takes a workload name or ``channels``: only
those entries are computed, written and compared, so that a check of one
workload takes seconds.  Nothing is written under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(a) -> str:
    import numpy as np

    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}:{hashlib.sha256(a.tobytes()).hexdigest()}"


def _coarse_space(cs) -> dict:
    out = {"n0": int(cs.n0), "per_subdomain": [int(c) for c in cs.per_subdomain],
           "flags": [int(f) for f in cs.flags], "rejected": [int(r) for r in cs.rejected]}
    for name in ("Z", "E"):
        M = getattr(cs, name, None)
        if M is not None:
            for part in ("data", "indices", "indptr"):
                out[f"{name}.{part}"] = _digest(getattr(M, part))
    return out


def _workloads(names) -> dict:
    from wavedd.linalg import krylov_solve
    from perfbench.tracing import Tracer
    from perfbench.workloads import FULL

    out = {}
    for name in names:
        workload = FULL[name]
        tr = Tracer()
        st = workload.setup(tr)
        iterations, residuals = {}, {}
        for m in workload.methods(st, tr, traced=False):
            reports = [krylov_solve(m.A, m.M, b, m.cfg)[1] for b in workload.loads(st)]
            iterations[m.name] = [int(r.iterations) for r in reports]
            residuals[m.name] = [float(r.final_residual) for r in reports]
        out[name] = {"coarse_spaces": {k: _coarse_space(cs)
                                       for k, cs in st.coarse_spaces.items()},
                     "iterations": iterations, "residuals": residuals}
    return out


def _channels() -> dict:
    from wavedd.maxwell import (MaxwellProblem, assemble_maxwell, build_edge_decomposition,
                                build_free_cs, build_geneo_complement_cs, channel_field)
    from wavedd.mesh import build_rect_mesh

    mesh = build_rect_mesh(1.0, 1.0, 48, 48)
    out = {}
    for contrast in (1.0, 1e2, 1e4):
        eps = channel_field(mesh, 1.0 / contrast, n_channels=10, width_frac=0.02)
        prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2)
        msys = assemble_maxwell(prob)
        dec = build_edge_decomposition(prob, msys, 8, shape="grid", grid=(4, 2))
        free = build_free_cs(dec, msys)
        geneo = build_geneo_complement_cs(dec, msys, tau=10.0, free_cs=free)
        out[f"channel48-contrast{contrast:g}"] = {
            "coarse_spaces": {"free": _coarse_space(free), "geneo": _coarse_space(geneo)}}
    return out


def _flatten(tree, prefix="") -> dict:
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for k, v in tree.items():
        out.update(_flatten(v, f"{prefix}/{k}" if prefix else k))
    return out


def differences(new: dict, old: dict) -> tuple[list[str], list[str]]:
    """One line per entry that is missing from one fingerprint or differs:
    the digests, counts and lists that fail a comparison, and apart from
    them the final residuals, which are information only."""
    a, b = _flatten(new), _flatten(old)
    fail, info = [], []
    for k in sorted(a.keys() | b.keys()):
        if a.get(k) == b.get(k):
            continue
        if "/residuals/" in k:
            info.append(f"{k}: {_floats(b.get(k))} -> {_floats(a.get(k))}")
        else:
            fail.append(f"{k}: {b.get(k, '<missing>')} -> {a.get(k, '<missing>')}")
    return fail, info


def _floats(values) -> str:
    return "<missing>" if values is None else "[" + ", ".join(f"{v:.4e}" for v in values) + "]"


def _selected(fingerprint: dict, only) -> dict:
    """The entries of a fingerprint that ``only`` names, less its root."""
    out = {"workloads": {k: v for k, v in fingerprint.get("workloads", {}).items()
                         if k in only}}
    if "channels" in only:
        out["channels"] = fingerprint.get("channels", {})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT, help="checkout to import (default: this one)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--compare", help="fingerprint JSON to compare with")
    ap.add_argument("--only", action="append", metavar="NAME",
                    help="a workload name or 'channels'; repeatable (default: all)")
    args = ap.parse_args(argv)
    # one BLAS thread, as in the benchmark: the thread count can change rounding
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), root]

    from perfbench.workloads import FULL

    names = list(FULL) + ["channels"]
    only = args.only or names
    unknown = sorted(set(only) - set(names))
    if unknown:
        ap.error(f"--only: unknown {', '.join(unknown)}; choose from {', '.join(names)}")
    fingerprint = {"root": root, "workloads": _workloads(n for n in FULL if n in only)}
    if "channels" in only:
        fingerprint["channels"] = _channels()
    with open(args.out, "w") as f:
        json.dump(fingerprint, f, indent=1)
    if not args.compare:
        return 0
    with open(args.compare) as f:
        old = json.load(f)
    diff, drift = differences(_selected(fingerprint, only), _selected(old, only))
    if drift:
        print("final residuals that differ (information only):", *drift, sep="\n  ")
    print("\n".join(diff) if diff else "identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
