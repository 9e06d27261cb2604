"""Span recorder and the timing proxies of the traced run.

A span is (name, start, end, parent); spans stay in memory and are written
out once, when the run ends.  The untraced run records only the coarse phase
spans that the benchmark opens itself (setup phases, rounds, solves).  The
traced run additionally times calls into the library at its public
boundaries: the callables handed to ``krylov_solve``, proxies for the
one-level and coarse objects handed to the two-level combinators, and the
``linalg`` entry points and ``CoarseSpace`` as the calling modules see them.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span."""

    def __init__(self):
        self.epoch = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def timed(self, name: str, fn):
        """``fn`` wrapped so that every call is recorded as a span ``name``."""

        def call(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return call

    def roots(self) -> list[int]:
        """Index of the top-level span that contains each span."""
        root = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s - self.epoch, "end": e - self.epoch, "parent": p}
            for n, s, e, p in self.spans
        ]


class TimedApply:
    """Proxy for a preconditioner component: times ``apply`` and forwards
    every other attribute, so the two-level combinators see the
    object they expect."""

    def __init__(self, inner, name: str, tracer: Tracer):
        self._inner = inner
        self.apply = tracer.timed(name, inner.apply)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# (module, attribute, span name): the library entry points timed in the
# traced run, patched in the namespace of each module that calls them.
LIBRARY_ENTRY_POINTS = (
    ("decomposition", "lu_factorize", "linalg.lu_factorize"),
    ("schwarz", "lu_factorize", "linalg.lu_factorize"),
    ("maxwell", "lu_factorize", "linalg.lu_factorize"),
    ("schwarz", "dense_generalized_eig", "linalg.dense_generalized_eig"),
    ("maxwell", "dense_generalized_eig", "linalg.dense_generalized_eig"),
    ("schwarz", "orthonormalize", "linalg.orthonormalize"),
    ("maxwell", "orthonormalize", "linalg.orthonormalize"),
)


@contextmanager
def instrument_library(tracer: Tracer):
    """Patch the library entry points and ``CoarseSpace`` with timed
    versions for the duration of the block, and restore them after."""
    from wavedd import decomposition, maxwell, schwarz

    modules = {"decomposition": decomposition, "schwarz": schwarz, "maxwell": maxwell}

    class TimedCoarseSpace(schwarz.CoarseSpace):
        def __init__(self, *args, **kwargs):
            with tracer.span("schwarz.coarse_factor"):
                super().__init__(*args, **kwargs)

    patches = [(modules[m], attr, tracer.timed(name, getattr(modules[m], attr)))
               for m, attr, name in LIBRARY_ENTRY_POINTS]
    patches += [(schwarz, "CoarseSpace", TimedCoarseSpace),
                (maxwell, "CoarseSpace", TimedCoarseSpace)]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, value in patches:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
