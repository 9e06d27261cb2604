"""Output checks of the benchmark, computed apart from the library.

Every check returns a bool and takes plain arrays or the library's objects,
so the tests can hand each one a wrong answer and see it fail.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# H A Z c = Z c holds up to rounding amplified by the conditioning of
# E = Z* A Z: the check allows COARSE_SLACK * eps * kappa_1(E).
COARSE_SLACK = 10.0
# forward error allowed against a direct solve, in units of the solve's tol
ERROR_CEILING = 10.0
POU_TOL = 1e-12


def _kappa1(M, solve, solve_h) -> float:
    """kappa_1(M) = ||M||_1 ||M^-1||_1, with ||M^-1||_1 from ``onenormest``
    on the given solves with M and M^H."""
    inv = spla.LinearOperator(M.shape, matvec=solve, rmatvec=solve_h, dtype=M.dtype)
    return float(abs(M).sum(axis=0).max() * spla.onenormest(inv))


def relative_residual(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """||b - A x||_2 / ||b||_2 with the matrix product done by scipy."""
    return float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


def residual_ok(A: sp.spmatrix, x: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.isfinite(x))) and relative_residual(A, x, b) <= tol


class DirectReference:
    """Direct solves with ``scipy.sparse.linalg.splu`` and a bound on the
    forward error of a solution with relative residual <= tol.

    For a (complex) symmetric A, ||A||_2 <= ||A||_1 and the same holds for
    A^-1, so kappa_2(A) <= kappa_1(A) and any x with ||b - Ax|| <= tol ||b||
    satisfies ||x - x*|| / ||x*|| <= kappa_1(A) tol.  kappa_1 is estimated
    from the exact ||A||_1 and ``onenormest`` of A^-1.

    kappa_1(A) tol follows from the residual check alone and can exceed 1
    (the Maxwell systems have kappa_1 ~ 5e10).  The bound is therefore capped
    at ERROR_CEILING tol, which the residual does not imply: it rejects a
    solution that meets the residual but keeps large error in directions
    that A nearly annihilates.
    """

    def __init__(self, A: sp.spmatrix):
        A = sp.csc_matrix(A)
        lu = spla.splu(A)
        self.solve = lu.solve
        self.kappa1 = _kappa1(A, lu.solve, lambda v: lu.solve(v, trans="H"))

    def error_bound(self, tol: float) -> float:
        return min(self.kappa1, ERROR_CEILING) * tol

    def error(self, x: np.ndarray, b: np.ndarray) -> float:
        """||x - x*|| / ||x*||, x* the direct solution."""
        ref = self.solve(b)
        return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))

    def agrees(self, x: np.ndarray, b: np.ndarray, tol: float) -> bool:
        return bool(self.error(x, b) <= self.error_bound(tol))


def _coarse_tolerance(E) -> float:
    """COARSE_SLACK * eps * kappa_1(E), kappa_1 from an LU of E made here."""
    if sp.issparse(E):
        lu = spla.splu(sp.csc_matrix(E))
        solve, solve_h = lu.solve, (lambda v: lu.solve(v, trans="H"))
    else:
        f = sla.lu_factor(E)
        solve, solve_h = (lambda v: sla.lu_solve(f, v)), (lambda v: sla.lu_solve(f, v, trans=2))
    return COARSE_SLACK * np.finfo(float).eps * _kappa1(E, solve, solve_h)


def coarse_reproduces_span(coarse, A: sp.spmatrix, rng: np.random.Generator) -> bool:
    """H A Z c = Z c for a random c: the coarse correction is exact on
    span(Z).  ``coarse`` needs ``Z``, ``E`` and ``apply`` (H v = Z E^-1 Z* v)."""
    tol = _coarse_tolerance(coarse.E)
    Z = coarse.Z
    c = rng.standard_normal(Z.shape[1])
    v = np.asarray(Z @ c).ravel()
    w = coarse.apply(A @ v)
    return bool(np.linalg.norm(w - v) <= tol * np.linalg.norm(v))


def pou_sums_to_one(dec, tol: float = POU_TOL) -> bool:
    """sum_j R_j^T D_j 1 = 1: the partition-of-unity weights cover every DOF
    exactly once."""
    acc = np.zeros(dec.n_dofs)
    for sd in dec.subdomains:
        np.add.at(acc, sd.dofs, sd.weights)
    return bool(np.abs(acc - 1.0).max() <= tol)


def fewer_iterations(two_level: int, one_level: int) -> bool:
    """A two-level solve must beat one-level on the same load."""
    return two_level < one_level


def rounds_identical(per_round_iterations: list) -> bool:
    """Every round repeats the same solves, so the counts must repeat."""
    return all(r == per_round_iterations[0] for r in per_round_iterations)
