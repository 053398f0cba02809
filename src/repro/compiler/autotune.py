"""Offline auto-tuning (last paragraph of Section IV-B) — simulated and
measured.

Two tiers:

* **Simulated** (the paper's tuner): :func:`tune_execution_config`
  searches execution configurations — tile rows per thread, unroll
  factor — and :func:`find_best_block_size` the BSP block grid
  (``Numr × Numc``), scoring each candidate with the analytic simulator;
  the block-size search folds in an accuracy proxy so the chosen grid is
  "an optimal combination of accuracy and performance", as the paper
  puts it.
* **Measured**: :func:`tune_plan` tunes the *executable* engine — it
  evaluates candidate per-layer configurations (dense vs CSR vs BSPC,
  quantization scheme) by timing the real
  :class:`~repro.engine.plan.ModelPlan` on a calibration batch, using
  the analytic simulator as a pre-filter that prunes each layer's format
  choices before anything is measured.  The default configuration is
  always in the candidate set, so the tuned plan is never slower than it
  on the calibration workload.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.compiler.codegen import CompileOptions, layer_plan_from_slot
from repro.compiler.ir import GraphOptions, LayerGraph, TileConfig, WeightSlot
from repro.compiler.passes import run_passes
from repro.compiler.pipeline import compile_for_simulation
from repro.errors import CompilationError, ConfigError
from repro.hw.device import DeviceSpec
from repro.pruning.bsp import BSPConfig, bsp_project_masks


@dataclass(frozen=True)
class TuningCandidate:
    """One evaluated configuration and its simulated latency."""

    tile: TileConfig
    num_row_strips: int
    num_col_blocks: int
    latency_us: float
    accuracy_proxy: float = 0.0

    def score(self, latency_weight: float = 1.0, accuracy_weight: float = 0.0) -> float:
        """Lower is better: weighted latency minus weighted accuracy proxy."""
        return latency_weight * self.latency_us - accuracy_weight * self.accuracy_proxy


@dataclass
class TuningResult:
    """Best configuration found plus the full exploration trace."""

    best: TuningCandidate
    trace: List[TuningCandidate] = field(default_factory=list)

    @property
    def num_evaluated(self) -> int:
        return len(self.trace)


def default_tile_space(max_rows_per_thread: int = 16) -> List[TileConfig]:
    """The tile/unroll grid the tuner explores by default."""
    space = []
    rows = 1
    while rows <= max_rows_per_thread:
        for unroll in (1, 2, 4):
            space.append(TileConfig(rows_per_thread=rows, unroll=unroll))
        rows *= 2
    return space


def tune_execution_config(
    named_weights: Dict[str, np.ndarray],
    device: DeviceSpec,
    base_options: Optional[CompileOptions] = None,
    tile_space: Optional[Sequence[TileConfig]] = None,
) -> TuningResult:
    """Search tile configurations for the lowest simulated latency."""
    base = base_options or CompileOptions()
    tile_space = list(default_tile_space() if tile_space is None else tile_space)
    if not tile_space:
        raise CompilationError("tile_space must not be empty")
    trace: List[TuningCandidate] = []
    for tile in tile_space:
        # replace() keeps every other option — including ones added to
        # CompileOptions after this tuner was written — instead of
        # silently dropping whatever a hand-written field list misses.
        options = dataclasses.replace(base, tile=tile)
        compiled = compile_for_simulation(named_weights, options)
        latency = compiled.simulate(device).latency_us
        trace.append(
            TuningCandidate(
                tile=tile,
                num_row_strips=base.num_row_strips,
                num_col_blocks=base.num_col_blocks,
                latency_us=latency,
            )
        )
    best = min(trace, key=lambda c: c.latency_us)
    return TuningResult(best=best, trace=trace)


def _retained_energy(weight: np.ndarray, mask_keep: np.ndarray) -> float:
    """Accuracy proxy: fraction of the weight tensor's squared norm kept.

    A cheap, training-free stand-in for post-pruning accuracy — block grids
    that let BSP keep the strongest weights retain more of the layer's
    energy and, empirically, more of its accuracy.
    """
    total = float(np.sum(weight**2))
    if total == 0.0:
        return 1.0
    kept = float(np.sum((weight * mask_keep) ** 2))
    return kept / total


def find_best_block_size(
    named_weights: Dict[str, np.ndarray],
    device: DeviceSpec,
    col_rate: float,
    row_rate: float,
    strip_choices: Iterable[int] = (1, 2, 4, 8),
    block_choices: Iterable[int] = (2, 4, 8, 16),
    accuracy_weight: float = 100.0,
    tile: Optional[TileConfig] = None,
) -> TuningResult:
    """Search the BSP block grid (``Numr × Numc``) for the best
    accuracy/latency combination at a fixed compression target.

    For each grid, the weights are BSP-projected, compiled, and simulated;
    the score combines simulated latency with the retained-energy accuracy
    proxy (scaled by ``accuracy_weight`` µs per unit of retained energy).
    """
    tile = tile or TileConfig()
    shapes = [np.asarray(w).shape for w in named_weights.values()]
    min_rows = min(s[0] for s in shapes)
    min_cols = min(s[1] for s in shapes)
    trace: List[TuningCandidate] = []
    for strips in strip_choices:
        if strips > min_rows:
            continue
        for blocks in block_choices:
            if blocks > min_cols:
                continue
            config = BSPConfig(
                col_rate=col_rate,
                row_rate=row_rate,
                num_row_strips=strips,
                num_col_blocks=blocks,
            )
            masks = bsp_project_masks(named_weights, config)
            pruned = {
                name: masks[name].apply_to_array(np.asarray(w))
                for name, w in named_weights.items()
            }
            proxy = float(
                np.mean(
                    [
                        _retained_energy(np.asarray(w), masks[name].keep)
                        for name, w in named_weights.items()
                    ]
                )
            )
            options = CompileOptions(
                num_row_strips=strips, num_col_blocks=blocks, tile=tile
            )
            latency = compile_for_simulation(pruned, options).simulate(device).latency_us
            trace.append(
                TuningCandidate(
                    tile=tile,
                    num_row_strips=strips,
                    num_col_blocks=blocks,
                    latency_us=latency,
                    accuracy_proxy=proxy,
                )
            )
    if not trace:
        raise CompilationError("no feasible block grid for the given weights")
    best = min(trace, key=lambda c: c.score(accuracy_weight=accuracy_weight))
    return TuningResult(best=best, trace=trace)


# ---------------------------------------------------------------------------
# Measured auto-tuning of the executable engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredCandidate:
    """One engine configuration and its measured forward latency."""

    label: str
    scheme: Optional[str]
    formats: Dict[str, str]  # slot name → decided/pinned format
    measured_s: float

    def describe_formats(self) -> str:
        """Compact ``slot=fmt`` summary, dense slots elided."""
        sparse = {k: v for k, v in self.formats.items() if v != "dense"}
        if not sparse:
            return "all-dense"
        return " ".join(f"{k}={v}" for k, v in sorted(sparse.items()))


@dataclass
class PlanTuningResult:
    """Outcome of :func:`tune_plan`: the winning compiled plan plus the
    full measured trace and the default-configuration baseline."""

    best: MeasuredCandidate
    plan: object  # the compiled ModelPlan of the winner
    graph: LayerGraph  # its annotated layer graph (save_plan-ready)
    baseline_s: float
    trace: List[MeasuredCandidate] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Measured default-config latency over tuned latency (>= 1.0:
        the default configuration is always in the candidate set)."""
        return self.baseline_s / self.best.measured_s

    @property
    def num_evaluated(self) -> int:
        return len(self.trace)


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm up: builds kernel plans, grows work buffers
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _simulated_slot_us(slot: WeightSlot, fmt: str, device: DeviceSpec) -> float:
    """Analytic one-step cost of running ``slot`` in format ``fmt``."""
    from repro.hw.executor import simulate_layer

    probe = WeightSlot(
        name=slot.name,
        op=slot.op,
        array=slot.array,
        format=fmt,
        grid=slot.grid,
        tile=slot.tile,
    )
    graph = LayerGraph(
        nodes=[_probe_node(probe)],
        options=GraphOptions(sparse_format=fmt),
    )
    run_passes(graph, analytic=True)
    return simulate_layer(layer_plan_from_slot(probe), device, timesteps=1).busy_us


def _probe_node(slot: WeightSlot):
    from repro.compiler.ir import GraphNode

    return GraphNode(name=slot.name, kind="linear", weights={"w": slot})


def tune_plan(
    model,
    sample_batch: np.ndarray,
    schemes: Sequence[Optional[str]] = (None,),
    formats: Sequence[str] = ("dense", "csr", "bspc"),
    config=None,
    device: Optional[DeviceSpec] = None,
    repeats: int = 3,
    prefilter_top: int = 2,
) -> PlanTuningResult:
    """Measured auto-tuning: search per-layer engine configurations by
    timing the real compiled plan on ``sample_batch``.

    The search runs in three stages:

    1. **Baseline** — the default-configuration engine
       (``engine.compile_model(model, scheme=schemes[0], config=config)``)
       is compiled and timed; it anchors the trace, so the tuned result
       can never be slower than the default on the calibration batch.
    2. **Simulator pre-filter** — for every tunable weight slot, each
       candidate format in ``formats`` is priced with the analytic mobile
       cost model on ``device`` and only the best ``prefilter_top``
       formats survive into measurement (the simulator prunes the
       combinatorial per-layer space before any wall clock is spent).
    3. **Measured greedy refinement** — per ``scheme``, a candidate graph pins every slot to its
       simulator-best surviving format and is timed; then each slot's
       runner-up formats are tried one at a time, keeping any change that
       measures faster.

    ``schemes`` are plan schemes, ``None`` (float64) and ``"int8"``;
    ``"int8"`` rounds weights and activations, so include it only when the
    deployment tolerates quantization — the accuracy contracts are the
    engine's usual per-scheme guarantees.

    Returns a :class:`PlanTuningResult` whose ``plan`` is the winning
    compiled :class:`~repro.engine.plan.ModelPlan` and whose ``graph``
    can be serialized with :func:`repro.engine.save_plan` for bit-exact
    redeployment.
    """
    # Engine imports are deferred: repro.engine lowers *through* this
    # package, so a module-level import here would be circular.
    from repro.engine.plan import EngineConfig, lower_graph
    from repro.engine.plan import compile_model as engine_compile
    from repro.compiler.pipeline import build_layer_graph
    from repro.hw.profiles import ADRENO_640

    if not schemes:
        raise ConfigError("schemes must not be empty")
    if not formats:
        raise ConfigError("formats must not be empty")
    for fmt in formats:
        if fmt not in ("dense", "csr", "bspc"):
            raise ConfigError(f"unknown tuning format {fmt!r}")
    config = config or EngineConfig()
    device = device or ADRENO_640
    repeats = max(1, repeats)
    sample_batch = np.asarray(sample_batch, dtype=np.float64)
    if sample_batch.ndim != 3:
        raise ConfigError(
            f"sample_batch must be (T, B, D) features, got {sample_batch.shape}"
        )

    def measure(plan) -> float:
        return _median_seconds(lambda: plan.forward_batch(sample_batch), repeats)

    def compile_pinned(scheme, pins: Dict[str, str]):
        graph = build_layer_graph(model, scheme=scheme, options=config.graph_options())
        for _, _, slot in graph.slots():
            if slot.format is None and slot.name in pins:
                slot.format = pins[slot.name]
        run_passes(graph)
        return lower_graph(graph, config), graph

    # Stage 1: the default-configuration baseline.
    baseline_plan = engine_compile(model, scheme=schemes[0], config=config)
    baseline_s = measure(baseline_plan)
    baseline = MeasuredCandidate(
        label="default",
        scheme=schemes[0],
        formats={
            name: fmt or "dense"
            for name, fmt in baseline_plan.graph.formats().items()
        },
        measured_s=baseline_s,
    )
    trace: List[MeasuredCandidate] = [baseline]
    best = baseline
    best_plan, best_graph = baseline_plan, baseline_plan.graph

    # Stage 2: simulator pre-filter of each slot's format choices.
    probe_graph = build_layer_graph(model, options=config.graph_options())
    slot_choices: Dict[str, List[str]] = {}
    for _, _, slot in probe_graph.slots():
        if slot.format is not None:
            continue  # pinned by the frontend (e.g. the output projection)
        ranked = sorted(formats, key=lambda f: _simulated_slot_us(slot, f, device))
        slot_choices[slot.name] = list(ranked[: max(1, prefilter_top)])

    # Stage 3: measured search per scheme.  A configuration is
    # never measured twice: re-timing an identical plan only resamples
    # noise, and a noisy duplicate of the baseline must not be reported
    # as a tuning "speedup" (the measured dict also seeds the greedy
    # comparisons for skipped repeats).
    def config_key(scheme, pins: Dict[str, str]):
        if scheme == "int8":  # an int8 CSR pin packs as BSPC: the same plan
            pins = {name: "bspc" if fmt == "csr" else fmt for name, fmt in pins.items()}
        return (scheme, tuple(sorted(pins.items())))

    measured: Dict[tuple, float] = {
        config_key(
            schemes[0], {name: baseline.formats[name] for name in slot_choices}
        ): baseline_s
    }

    def try_candidate(label, scheme, pins):
        """Measure one pinned configuration (or return its known time)."""
        nonlocal best, best_plan, best_graph
        key = config_key(scheme, pins)
        if key in measured:
            return measured[key]
        plan, graph = compile_pinned(scheme, pins)
        elapsed = measure(plan)
        measured[key] = elapsed
        candidate = MeasuredCandidate(
            label=label,
            scheme=scheme,
            formats={n: f or "dense" for n, f in graph.formats().items()},
            measured_s=elapsed,
        )
        trace.append(candidate)
        if elapsed < best.measured_s:
            best, best_plan, best_graph = candidate, plan, graph
        return elapsed

    for scheme in schemes:
        current = {name: choices[0] for name, choices in slot_choices.items()}
        tag = scheme or "none"
        incumbent_s = try_candidate(f"sim-best[{tag}]", scheme, current)
        for name, choices in slot_choices.items():
            for fmt in choices[1:]:
                variant = dict(current)
                variant[name] = fmt
                elapsed = try_candidate(f"{name}->{fmt}[{tag}]", scheme, variant)
                if elapsed < incumbent_s:
                    current, incumbent_s = variant, elapsed

    return PlanTuningResult(
        best=best,
        plan=best_plan,
        graph=best_graph,
        baseline_s=baseline_s,
        trace=trace,
    )
