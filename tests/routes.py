"""The three ways an engine plan runs, for the exactness suites.

* ``"program"`` — the plan as lowered: one C call a chunk wherever a
  compiler exists (an int8 plan), else the generic loop;
* ``"numpy"`` — the generic per-layer loop on numpy's kernels, the
  product's ops (``plan.program = None``);
* ``"reference"`` — the generic loop on :mod:`repro.kernels.reference`'s
  ops, the oracle: the plan lowered with ``reference.OPS`` in place of
  ``kernels.OPS``.

Not a test module: the suites import it.
"""

from contextlib import contextmanager

from repro import engine, kernels
from repro.kernels import reference

ROUTES = ("program", "numpy", "reference")


@contextmanager
def reference_ops():
    """Every plan lowered inside binds the oracle's ops."""
    saved = dict(kernels.OPS)
    kernels.OPS.update(reference.OPS)
    try:
        yield
    finally:
        kernels.OPS.update(saved)


def generic_loop(plan):
    """``plan`` with its program taken away: the generic loop runs every
    chunk from here on (nothing lowers it again)."""
    plan.program = None
    return plan


def on_route(plan, route):
    """``plan`` itself on ``"program"``; else its graph lowered again, to a
    new plan that runs ``route``'s generic loop."""
    if route == "program":
        return plan
    if route == "numpy":
        return generic_loop(engine.lower_graph(plan.graph, plan.config))
    assert route == "reference", route
    with reference_ops():
        return generic_loop(engine.lower_graph(plan.graph, plan.config))


_ORACLES = {}


def oracle(plan):
    """``on_route(plan, "reference")``, lowered once per plan (the suites'
    long-lived fixture plans; each one is kept alive with its oracle)."""
    held = _ORACLES.get(id(plan))
    if held is None or held[0] is not plan:
        held = _ORACLES[id(plan)] = (plan, on_route(plan, "reference"))
    return held[1]


@contextmanager
def bound_to_the_oracle(plan):
    """``plan`` with each packed weight's kernel the oracle's op inside, as
    a lowering inside :func:`reference_ops` binds it: the generic loop on
    the oracle over the very matrices the plan holds, for a plan whose
    weights changed after lowering.  The program is left as it is."""
    weights = [w for w in plan._weights if w.op in reference.OPS]  # not np.matmul
    saved = [w.kernel for w in weights]
    for weight in weights:
        weight.kernel = reference.OPS[weight.op]
    try:
        yield plan
    finally:
        for weight, kernel in zip(weights, saved):
            weight.kernel = kernel
