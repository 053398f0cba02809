"""Pluggable kernel registry: op name × backend name → implementation.

The registry is the single dispatch seam between *what* the library wants
to compute (``spmv``, ``spmm``, ``gru_sequence``, …) and *how* it is
computed.  Three backends ship today:

* ``"reference"`` — the original straight-line Python loops.  Slow, but
  obviously correct; the equivalence suite treats them as ground truth.
* ``"numpy"`` — vectorized plan-then-execute implementations.
* ``"compiled"`` — generated C (:mod:`repro.kernels.compiled`), present
  only on hosts with a working C compiler.

A backend can be chosen explicitly — globally
(:func:`set_default_backend`, ``REPRO_KERNEL_BACKEND``), lexically
(:func:`use_backend`), or per call (the ``backend=`` argument accepted by
every dispatching entry point in :mod:`repro.kernels`) — and then serves
every op it registered.  When none was chosen, dispatch is **per op**:
each op goes to the backend recorded as winning it
(:meth:`KernelRegistry.route`).  Either way an op its backend did not
register goes to ``"numpy"``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import KernelError


class KernelRegistry:
    """Maps ``(op, backend)`` pairs to callables."""

    def __init__(self, default_backend: str = "numpy") -> None:
        self._impls: Dict[str, Dict[str, Callable]] = {}
        self._fallback = default_backend
        #: The explicitly chosen backend; ``None`` means per-op routing.
        self._chosen: Optional[str] = None
        self._routes: Dict[str, str] = {}

    # -- registration -----------------------------------------------------
    def register(
        self, op: str, backend: str, fn: Optional[Callable] = None, override: bool = False
    ) -> Callable:
        """Register ``fn`` as the ``backend`` implementation of ``op``.

        Usable directly or as a decorator::

            @registry.register("spmv", "numpy")
            def spmv(matrix, x): ...
        """

        def _register(implementation: Callable) -> Callable:
            table = self._impls.setdefault(op, {})
            if backend in table and not override:
                raise KernelError(
                    f"kernel {op!r} already has a {backend!r} backend; "
                    "pass override=True to replace it"
                )
            table[backend] = implementation
            return implementation

        return _register(fn) if fn is not None else _register

    def route(self, op: str, backend: str) -> None:
        """Record ``backend`` as the one that wins ``op`` on measured
        shapes: where no backend was chosen explicitly, ``op`` dispatches
        there — provided that backend registered it on this host."""
        self._routes[op] = backend

    # -- lookup -----------------------------------------------------------
    def get(self, op: str, backend: Optional[str] = None) -> Callable:
        """Resolve ``op`` for ``backend``, else the explicitly chosen
        backend, else the op's routed backend — and, where that backend
        exists but did not register ``op``, for the fallback: a backend
        registers the ops it implements, not a second name for numpy's."""
        table = self._impls.get(op)
        if table is None:
            raise KernelError(f"unknown kernel op {op!r}; known: {self.ops()}")
        backend = backend or self._chosen
        if backend is None:
            backend = self._routes.get(op)
        elif backend not in table and backend not in self.backends():
            raise KernelError(
                f"unknown backend {backend!r} for kernel {op!r}; "
                f"available: {self.backends()}"
            )
        fn = table.get(backend) or table.get(self._fallback)
        if fn is None:
            raise KernelError(
                f"kernel {op!r} has no {backend!r} backend; "
                f"available: {sorted(table)}"
            )
        return fn

    def ops(self) -> List[str]:
        """Sorted names of all registered ops."""
        return sorted(self._impls)

    def backends(self, op: Optional[str] = None) -> List[str]:
        """Backends available for ``op`` (or across all ops)."""
        if op is not None:
            if op not in self._impls:
                raise KernelError(f"unknown kernel op {op!r}; known: {self.ops()}")
            return sorted(self._impls[op])
        names = {b for table in self._impls.values() for b in table}
        return sorted(names)

    # -- backend selection ------------------------------------------------
    @property
    def chosen_backend(self) -> Optional[str]:
        """The explicitly chosen backend, ``None`` under per-op routing."""
        return self._chosen

    @property
    def default_backend(self) -> str:
        """The backend unrouted ops dispatch to."""
        return self._chosen or self._fallback

    def set_default_backend(self, backend: Optional[str]) -> None:
        """Make ``backend`` the explicit choice for all dispatches;
        ``None`` withdraws any choice (back to per-op routing)."""
        if backend is not None and backend not in self.backends():
            raise KernelError(
                f"unknown backend {backend!r}; available: {self.backends()}"
            )
        self._chosen = backend

    @contextmanager
    def use_backend(self, backend: Optional[str]) -> Iterator[None]:
        """Temporarily choose ``backend`` for every op — or, with
        ``None``, no backend: per-op routing (context manager)."""
        previous = self._chosen
        self.set_default_backend(backend)
        try:
            yield
        finally:
            self._chosen = previous


#: The process-wide registry every ``repro.kernels`` entry point consults.
registry = KernelRegistry()


def set_default_backend(backend: Optional[str]) -> None:
    """Select the process-wide default backend (module-level convenience)."""
    registry.set_default_backend(backend)


def get_default_backend() -> str:
    """Name of the current process-wide default backend (the explicit
    choice, or ``"numpy"`` — with per-op routing on top — when none)."""
    return registry.default_backend


def use_backend(backend: Optional[str]):
    """Context manager temporarily switching the default backend
    (``None``: no explicit backend, per-op routing)."""
    return registry.use_backend(backend)
