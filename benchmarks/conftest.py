"""Shared fixtures for the paper's tables as assertions — not a timing
system (``bench/run.py`` is).  Every table/figure/ablation has one
``bench_*`` module asserting its paper-scale claim and printing measured
vs. paper; the ``paper-tables`` CI job runs them with timing off::

    PYTHONPATH=src python -m pytest -q benchmarks/ --benchmark-disable   # -s shows the tables
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.table2 import Table2Config, Table2Result, run_table2


@pytest.fixture(scope="session")
def table2_result() -> Table2Result:
    """The full paper-scale Table II sweep, computed once per session."""
    return run_table2(Table2Config())


@pytest.fixture(scope="session")
def paper_scale_pruned_weights():
    """Paper-scale GRU weights, BSP-pruned at the 103x configuration."""
    from repro.eval.table2 import paper_scale_weights
    from repro.pruning.bsp import BSPConfig, bsp_project_masks

    weights = paper_scale_weights(Table2Config())
    masks = bsp_project_masks(
        weights,
        BSPConfig(col_rate=16, row_rate=16, num_row_strips=8, num_col_blocks=8),
    )
    return {name: masks[name].apply_to_array(w) for name, w in weights.items()}
