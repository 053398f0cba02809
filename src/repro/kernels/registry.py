"""Pluggable kernel registry: op name × backend name → implementation.

The registry is the single dispatch seam between *what* the library wants
to compute (``spmv``, ``spmm``, ``gru_sequence``, …) and *how* it is
computed.  Two backends ship, and each registers every op:

* ``"reference"`` — the original straight-line Python loops.  Slow, but
  obviously correct; the equivalence suite treats them as ground truth.
* ``"numpy"`` — vectorized plan-then-execute implementations.

A backend can be chosen explicitly — globally
(:func:`set_default_backend`, ``REPRO_KERNEL_BACKEND``), lexically
(:func:`use_backend`), or per call (the ``backend=`` argument accepted by
every dispatching entry point in :mod:`repro.kernels`); with none chosen,
every op dispatches to ``"numpy"``.  The compiled C of
:mod:`repro.kernels.compiled` is no backend here: an int8 engine plan runs
it as one program per chunk wherever no backend was chosen
(``docs/engine.md``), and ``gru_sequence_grad`` its two time loops
(``docs/training.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import KernelError


class KernelRegistry:
    """Maps ``(op, backend)`` pairs to callables."""

    def __init__(self) -> None:
        self._impls: Dict[str, Dict[str, Callable]] = {}
        #: The explicitly chosen backend; ``None``: none was.
        self._chosen: Optional[str] = None

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

    # -- lookup -----------------------------------------------------------
    def get(self, op: str, backend: Optional[str] = None) -> Callable:
        """Resolve ``op`` for ``backend``, else the explicitly chosen
        backend, else the default one."""
        table = self._impls.get(op)
        if table is None:
            raise KernelError(f"unknown kernel op {op!r}; known: {self.ops()}")
        backend = backend or self.default_backend
        fn = table.get(backend)
        if fn is None:
            raise KernelError(
                f"unknown backend {backend!r} for kernel {op!r}; "
                f"available: {sorted(table)}"
            )
        return fn

    def ops(self) -> List[str]:
        """Sorted names of all registered ops."""
        return sorted(self._impls)

    def backends(self) -> List[str]:
        """Backends registered across all ops."""
        return sorted({b for table in self._impls.values() for b in table})

    # -- backend selection ------------------------------------------------
    @property
    def chosen_backend(self) -> Optional[str]:
        """The explicitly chosen backend, ``None`` where none was."""
        return self._chosen

    @property
    def default_backend(self) -> str:
        """The backend ops dispatch to without a per-call one: the chosen
        one, else ``"numpy"``."""
        return self._chosen or "numpy"

    def set_default_backend(self, backend: Optional[str]) -> None:
        """Make ``backend`` the explicit choice for all dispatches;
        ``None`` withdraws any choice."""
        if backend is not None and backend not in self.backends():
            raise KernelError(
                f"unknown backend {backend!r}; available: {self.backends()}"
            )
        self._chosen = backend

    @contextmanager
    def use_backend(self, backend: Optional[str]) -> Iterator[None]:
        """Temporarily choose ``backend`` for every op — or, with
        ``None``, no backend (context manager)."""
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
    choice, or ``"numpy"`` when none)."""
    return registry.default_backend


def use_backend(backend: Optional[str]):
    """Context manager temporarily switching the default backend
    (``None``: no explicit backend)."""
    return registry.use_backend(backend)
