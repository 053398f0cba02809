"""Sweep robustness benchmark: chaos + resume must change *nothing*.

Runs the reduced prune→retrain grid twice:

* a **reference** sweep, never interrupted;
* a **chaos** sweep whose every cell is crashed mid-training by a
  seeded fault plan (first pass, zero retries), then — when ``resume``
  is set — a second pass over the same state dir that resumes each cell
  from its atomic checkpoint.

``--expect-exact`` is the CI gate: for every cell the chaos-resumed run
must match the reference **bit-for-bit** on final weights (SHA-256),
the full loss curve, and the PER — and the plan published into the
registry must produce byte-identical probe logits.  Any drift exits
nonzero.

The timing side reports wall-clock per pass, so the recorded
chaos-resume overhead (crash + respawn + checkpoint reload) is visible
next to the clean sweep cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.artifact import load_plan
from repro.engine.registry import PlanRegistry
from repro.eval.report import fmt, format_table
from repro.sweep import SweepConfig, SweepResult, run_sweep
from repro.utils.rng import new_rng
from repro.utils.stats import summarize

#: The reduced 2×2 grid (rates × schemes) the CI smoke job runs.
REDUCED_RATES = ((2.0, 1.25), (4.0, 1.25))
REDUCED_SCHEMES = (None, "int8")

_PROBE_FRAMES = 16


@dataclass(frozen=True)
class SweepBenchConfig:
    """Knobs for the sweep robustness benchmark."""

    state_dir: Path
    workers: int = 2
    chaos: bool = True
    resume: bool = True
    rates: Sequence[Tuple[float, float]] = REDUCED_RATES
    schemes: Sequence[Optional[str]] = REDUCED_SCHEMES
    seed: int = 0
    hidden_size: int = 16
    num_train: int = 8
    num_test: int = 4
    dense_epochs: int = 1
    cell_timeout_s: float = 600.0


@dataclass
class CellComparison:
    """Reference vs chaos-resumed outcome for one grid cell."""

    name: str
    attempts: int
    per: float
    weights_match: bool
    losses_match: bool
    per_match: bool
    probe_match: bool
    crashed: bool

    @property
    def exact(self) -> bool:
        return (
            self.weights_match
            and self.losses_match
            and self.per_match
            and self.probe_match
        )


@dataclass
class SweepBenchResult:
    config: SweepBenchConfig
    reference: SweepResult
    resumed: SweepResult
    comparisons: List[CellComparison]
    reference_s: float
    chaos_s: float
    resume_s: float
    chaos_failures: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def all_exact(self) -> bool:
        return all(c.exact for c in self.comparisons)

    @property
    def all_crashed(self) -> bool:
        return all(c.crashed for c in self.comparisons)

    def to_rows(self) -> List[Dict]:
        rows = [
            {
                "cell": c.name,
                "attempts": c.attempts,
                "per": c.per,
                "crashed": c.crashed,
                "weights_match": c.weights_match,
                "losses_match": c.losses_match,
                "per_match": c.per_match,
                "probe_match": c.probe_match,
                "exact": c.exact,
            }
            for c in self.comparisons
        ]
        rows.append(
            {
                "cell": "__timing__",
                "reference_s": self.reference_s,
                "chaos_s": self.chaos_s,
                "resume_s": self.resume_s,
                "chaos_resume_overhead": (
                    (self.chaos_s + self.resume_s) / self.reference_s
                    if self.reference_s > 0
                    else float("nan")
                ),
            }
        )
        return rows


def _probe_logits(registry: PlanRegistry, name: str, seed: int) -> np.ndarray:
    """Deterministic probe through the *published* cell plan (v2)."""
    entry = registry.resolve(name, "v2")
    plan = load_plan(entry.artifact_path)
    features = new_rng(seed).standard_normal(
        (_PROBE_FRAMES, plan.input_dim)
    )
    return plan.forward_utterance(features)


def run_sweep_bench(config: SweepBenchConfig) -> SweepBenchResult:
    state_dir = Path(config.state_dir)
    shared = dict(
        rates=tuple(config.rates),
        schemes=tuple(config.schemes),
        workers=config.workers,
        seed=config.seed,
        hidden_size=config.hidden_size,
        num_train=config.num_train,
        num_test=config.num_test,
        dense_epochs=config.dense_epochs,
        cell_timeout_s=config.cell_timeout_s,
    )

    start = time.perf_counter()
    reference = run_sweep(
        SweepConfig(state_dir=state_dir / "reference", **shared)
    )
    reference_s = time.perf_counter() - start

    chaos_s = resume_s = 0.0
    chaos_failures = 0
    notes: List[str] = []
    run_dir = state_dir / "run"
    if config.chaos and config.resume:
        # Pass 1: crash every cell mid-training, no retries — cells are
        # left incomplete on purpose.  Pass 2: resume from checkpoints.
        start = time.perf_counter()
        pass1 = run_sweep(
            SweepConfig(state_dir=run_dir, retry_budget=0, **shared),
            chaos=True,
            strict=False,
        )
        chaos_s = time.perf_counter() - start
        chaos_failures = len(pass1.failed)
        start = time.perf_counter()
        resumed = run_sweep(SweepConfig(state_dir=run_dir, **shared))
        resume_s = time.perf_counter() - start
    elif config.chaos:
        # Single pass: in-pass recovery via the retry budget.
        start = time.perf_counter()
        resumed = run_sweep(
            SweepConfig(state_dir=run_dir, retry_budget=1, **shared),
            chaos=True,
        )
        chaos_s = time.perf_counter() - start
        chaos_failures = sum(len(o.failures) for o in resumed.outcomes)
    else:
        start = time.perf_counter()
        resumed = run_sweep(SweepConfig(state_dir=run_dir, **shared))
        resume_s = time.perf_counter() - start
        notes.append("chaos disabled: comparing two clean runs")

    ref_registry = PlanRegistry(
        SweepConfig(state_dir=state_dir / "reference", **shared).registry_root()
    )
    run_registry = PlanRegistry(
        SweepConfig(state_dir=run_dir, **shared).registry_root()
    )
    comparisons = []
    for ref, res in zip(reference.outcomes, resumed.outcomes):
        a, b = ref.result or {}, res.result or {}
        probe_match = False
        if ref.completed and res.completed:
            probe_match = bool(
                np.array_equal(
                    _probe_logits(ref_registry, ref.cell.name, config.seed),
                    _probe_logits(run_registry, res.cell.name, config.seed),
                )
            )
        comparisons.append(
            CellComparison(
                name=ref.cell.name,
                attempts=res.attempts,
                per=b.get("per", float("nan")),
                weights_match=bool(a) and bool(b)
                and a["weights_sha256"] == b["weights_sha256"],
                losses_match=bool(a) and bool(b)
                and a["loss_curve"] == b["loss_curve"],
                per_match=bool(a) and bool(b) and a["per"] == b["per"],
                probe_match=probe_match,
                crashed=any("crash" in f for f in res.failures)
                or chaos_failures > 0,
            )
        )
    return SweepBenchResult(
        config=config,
        reference=reference,
        resumed=resumed,
        comparisons=comparisons,
        reference_s=reference_s,
        chaos_s=chaos_s,
        resume_s=resume_s,
        chaos_failures=chaos_failures,
        notes=notes,
    )


def render_sweep_bench(result: SweepBenchResult) -> str:
    rows = []
    for c in result.comparisons:
        rows.append(
            (
                c.name,
                str(c.attempts),
                fmt(c.per, 2),
                "yes" if c.crashed else "no",
                "OK" if c.weights_match else "DRIFT",
                "OK" if c.losses_match else "DRIFT",
                "OK" if c.probe_match else "DRIFT",
                "exact" if c.exact else "MISMATCH",
            )
        )
    table = format_table(
        ("cell", "tries", "PER%", "crashed", "weights", "losses", "probe", "verdict"),
        rows,
    )
    pers = summarize([c.per for c in result.comparisons])
    lines = [
        "sweep robustness bench (reference vs chaos-resumed)",
        "",
        table,
        "",
        f"PER over {pers.count} cells: mean {pers.mean:.2f}  "
        f"p50 {pers.p50:.2f}  p95 {pers.p95:.2f}",
        f"timing: reference {result.reference_s:.1f}s  "
        f"chaos {result.chaos_s:.1f}s  resume {result.resume_s:.1f}s  "
        f"({result.chaos_failures} injected failure(s))",
    ]
    lines.extend(result.notes)
    return "\n".join(lines)


__all__ = [
    "REDUCED_RATES",
    "REDUCED_SCHEMES",
    "CellComparison",
    "SweepBenchConfig",
    "SweepBenchResult",
    "render_sweep_bench",
    "run_sweep_bench",
]
