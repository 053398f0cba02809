"""Measured auto-tuning harness behind ``python -m repro tune``.

Builds a (optionally BSP-pruned) GRU acoustic model, calls
:func:`repro.compiler.autotune.tune_plan` with a synthetic calibration
batch, renders the measured trace, and optionally saves the winning
plan as a compiled artifact — verifying the save → load → run round
trip reproduces bit-identical logits before reporting success.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.autotune import PlanTuningResult, tune_plan
from repro.eval.report import format_table
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class TuneConfig:
    """Model/workload scale and search space for the tuning run."""

    hidden_size: int = 64
    num_layers: int = 2
    input_dim: int = 40
    seq_len: int = 100
    batch: int = 16
    prune: bool = True
    col_rate: float = 4.0
    row_rate: float = 2.0
    schemes: Tuple[Optional[str], ...] = (None,)
    repeats: int = 3
    seed: int = 0


def build_tune_workload(config: TuneConfig):
    """The model (pruned when asked) and calibration batch to tune on."""
    model = GRUAcousticModel(
        AcousticModelConfig(
            input_dim=config.input_dim,
            hidden_size=config.hidden_size,
            num_layers=config.num_layers,
        ),
        rng=config.seed,
    ).eval()
    if config.prune:
        masks = bsp_project_masks(
            model.prunable_weights(),
            BSPConfig(
                col_rate=config.col_rate,
                row_rate=config.row_rate,
                num_row_strips=4,
                num_col_blocks=4,
            ),
        )
        for name, param in model.prunable_parameters().items():
            param.data[...] = masks[name].apply_to_array(param.data)
    sample = new_rng(config.seed + 1).standard_normal(
        (config.seq_len, config.batch, config.input_dim)
    )
    return model, sample


@dataclass
class TuneOutcome:
    """One tuning run: the result plus the workload it ran on."""

    config: TuneConfig
    result: PlanTuningResult

    def to_rows(self) -> List[Dict]:
        rows = []
        for cand in self.result.trace:
            rows.append(
                {
                    "label": cand.label,
                    "scheme": cand.scheme or "none",
                    "formats": cand.describe_formats(),
                    "measured_ms": cand.measured_s * 1e3,
                    "vs_default": self.result.baseline_s / cand.measured_s,
                    "best": cand is self.result.best,
                }
            )
        return rows


def run_tune(config: TuneConfig) -> TuneOutcome:
    model, sample = build_tune_workload(config)
    result = tune_plan(
        model,
        sample,
        schemes=config.schemes,
        repeats=config.repeats,
    )
    return TuneOutcome(config=config, result=result)


def render_tune(outcome: TuneOutcome) -> str:
    config, result = outcome.config, outcome.result
    workload = (
        f"BSP {config.col_rate * config.row_rate:.0f}x pruned"
        if config.prune
        else "dense"
    )
    header = (
        f"measured autotune: H={config.hidden_size} L={config.num_layers} "
        f"calib T={config.seq_len} B={config.batch} ({workload}), "
        f"{result.num_evaluated} candidates measured"
    )
    rows = [
        (
            ("*" if row["best"] else " ") + row["label"],
            row["scheme"],
            row["formats"],
            f"{row['measured_ms']:.2f}",
            f"{row['vs_default']:.2f}x",
        )
        for row in outcome.to_rows()
    ]
    table = format_table(
        ["candidate", "scheme", "formats", "ms", "vs default"],
        rows,
    )
    footer = (
        f"tuned plan: {result.best.describe_formats()} — "
        f"{result.speedup:.2f}x the default-config engine on this batch"
    )
    return "\n".join([header, "", table, "", footer])


def save_and_verify(outcome: TuneOutcome, path: Path) -> bool:
    """Save the tuned plan, reload it, and check bit-identical logits."""
    from repro import engine

    engine.save_plan(path, outcome.result.plan)
    reloaded = engine.load_plan(path)
    _, sample = build_tune_workload(outcome.config)
    return bool(
        np.array_equal(
            outcome.result.plan.forward_batch(sample),
            reloaded.forward_batch(sample),
        )
    )
