"""Benchmark driver: records BENCH_kernels.json, BENCH_engine.json,
BENCH_training.json, BENCH_serving.json, and BENCH_autotune.json.

Runs the hot-path kernel cases, the engine suite (compiled batched
forward vs per-utterance eager, int8 vs float sparse ops), the training
suite (fused BPTT vs autograd tape: epoch time, BPTT step time, ADMM
prune→retrain epoch, ADMM projection), and the streaming-serving suite
(chunked stateful sessions through the deadline-batching scheduler vs
offline batched serving, plus per-chunk latency percentiles) with a
plain ``time.perf_counter`` harness and writes machine-readable records
so future PRs have a perf trajectory to regress against::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --repeats 50
    PYTHONPATH=src python benchmarks/run_bench.py --check BENCH_kernels.json BENCH_engine.json BENCH_training.json BENCH_serving.json BENCH_autotune.json

Each row records ``op``, ``size``, ``backend``, ``median_s``, and
``speedup_vs_baseline``, where the baseline backend is the seed
implementation of that op: the ``reference`` Python loops for sparse ops,
the autograd-tape ``GRU.forward``/``LSTM.forward`` (``tensor_tape``
rows) for the sequence kernels and training cases, the per-utterance
eager path for the engine forward, the float numpy backend for the int8
ops (the numpy int8 path for the int8 sparse-vs-compiled rows), and the
offline batched path for the streaming throughput rows.  On hosts with a
working C compiler the ``compiled`` backend joins every sparse and int8
case; the autotune suite additionally records the tile ranking under the
host-calibrated cost model (``tile_model_calibrated``).
The tail-latency rows are each their own baseline: raw milliseconds are
machine-dependent, so the latency gate is the machine-independent
p95/p50 *ratio* carried in ``speedup_vs_baseline``, not absolute time.
The autotune rows come from the measured tuner's own trace: the tuned
plan can never be slower than the default configuration it searched
against, so the gate watches the tuned speedup for collapse.

``--check`` is the CI regression gate: it re-runs the suites and exits
nonzero if any recorded row got more than ``--threshold`` (default 1.5x)
slower than its baseline file, without rewriting the records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import engine, kernels  # noqa: E402
from repro.kernels import compiled as compiled_backend  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.nn.rnn import GRU, LSTM  # noqa: E402
from repro.nn.tensor import Tensor  # noqa: E402
from repro.pruning.bsp import BSPConfig, BSPPruner, bsp_project_masks  # noqa: E402
from repro.pruning.projections import (  # noqa: E402
    _project_bank_balanced_loop,
    project_bank_balanced,
)
from repro.sparse.blocks import grid_for  # noqa: E402
from repro.sparse.bspc import BSPCMatrix  # noqa: E402
from repro.sparse.csr import CSRMatrix  # noqa: E402
from repro.speech.model import AcousticModelConfig, GRUAcousticModel  # noqa: E402
from repro.speech.phones import NUM_CLASSES  # noqa: E402
from repro.speech.synth import SynthConfig, make_corpus  # noqa: E402
from repro.speech.trainer import Trainer, TrainerConfig  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402

# The compiled C backend joins every sparse/int8 case when this host has
# a working compiler; without one the suites simply record the two
# always-available backends (the registry never lists "compiled" then).
SPARSE_BACKENDS = ["reference", "numpy"] + (
    ["compiled"] if compiled_backend.available() else []
)

#: Int8 sparse cases compare against the numpy int8 path, not reference:
#: the acceptance-tracked ratio is compiled-vs-numpy on bspc_spmm.
INT8_SPARSE_BACKENDS = ["numpy"] + (
    ["compiled"] if compiled_backend.available() else []
)


def median_seconds(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm up (also builds/caches any execution plan)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def interleaved_medians(
    fns: Dict[str, Callable[[], object]], repeats: int
) -> Dict[str, float]:
    """Median runtime per case, sampled round-robin.

    Slow cases (the tape-training baselines) run for seconds; measuring
    each case's repeats back-to-back would let machine-speed drift across
    the run bias one side of a speedup ratio.  Alternating the cases puts
    every sample pair under the same conditions.
    """
    for fn in fns.values():
        fn()  # warm up
    samples: Dict[str, List[float]] = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(s)) for name, s in samples.items()}


def pruned_matrix(size: int = 1024, strips: int = 8, blocks: int = 8) -> np.ndarray:
    rng = new_rng(0)
    weight = rng.standard_normal((size, size))
    masks = bsp_project_masks(
        {"w": weight},
        BSPConfig(col_rate=8, row_rate=2, num_row_strips=strips, num_col_blocks=blocks),
    )
    return masks["w"].apply_to_array(weight)


def bench_sparse(repeats: int) -> List[Dict]:
    size, strips, blocks = 1024, 8, 8
    pruned = pruned_matrix(size, strips, blocks)
    grid = grid_for(pruned, strips, blocks)
    bspc = BSPCMatrix.from_dense(pruned, grid)
    csr = CSRMatrix.from_dense(pruned)
    x = new_rng(1).standard_normal(size)
    batch = new_rng(2).standard_normal((size, 16))

    cases = [
        ("bspc_spmv", f"{size}x{size} grid={strips}x{blocks}",
         lambda b: (lambda: bspc.spmv(x, backend=b))),
        ("bspc_spmm", f"{size}x{size}x16 grid={strips}x{blocks}",
         lambda b: (lambda: bspc.spmm(batch, backend=b))),
        ("csr_spmv", f"{size}x{size}",
         lambda b: (lambda: csr.spmv(x, backend=b))),
        ("csr_spmm", f"{size}x{size}x16",
         lambda b: (lambda: csr.spmm(batch, backend=b))),
    ]
    rows = []
    for op, label, make in cases:
        # where "compiled" registers the numpy implementation (the float
        # BSPC products) its row would time numpy against itself
        numpy_fn = kernels.registry.get(op, "numpy")
        backends = [
            b for b in SPARSE_BACKENDS
            if b == "numpy" or kernels.registry.get(op, b) is not numpy_fn
        ]
        medians = {b: median_seconds(make(b), repeats) for b in backends}
        baseline = medians["reference"]
        for backend in backends:
            rows.append({
                "op": op,
                "size": label,
                "backend": backend,
                "median_s": medians[backend],
                "speedup_vs_baseline": baseline / medians[backend],
                "baseline": "reference",
            })

    # Int8 sparse cases, compiled vs numpy (reference int8 is orders of
    # magnitude off and would only stretch the run).  The bspc_spmm row
    # is the acceptance-tracked one: the compiled int8 panel kernel (16
    # columns: two blocks of eight) against the numpy int8 path at the
    # paper-scale grid.
    int8_cases = [
        ("bspc_spmv_int8", f"{size}x{size} grid={strips}x{blocks}",
         lambda b: (lambda: kernels.spmv_int8(bspc, x, backend=b))),
        ("bspc_spmm_int8", f"{size}x{size}x16 grid={strips}x{blocks}",
         lambda b: (lambda: kernels.spmm_int8(bspc, batch, backend=b))),
        ("csr_spmm_int8", f"{size}x{size}x16",
         lambda b: (lambda: kernels.spmm_int8(csr, batch, backend=b))),
    ]
    # The dense int8 layers of a lowered plan (layer-0 projection, output
    # layer) at the serving chunk sizes.  "compiled" implements the op only
    # in a library built with the rows-in-lanes kernel; anywhere else it
    # aliases numpy, and its row would time numpy against itself.
    if compiled_backend.lanes():
        for out_dim, in_dim in ((1536, 40), (40, 512)):
            codes, scale = kernels.int8_codes(
                new_rng(3).standard_normal((out_dim, in_dim))
            )
            codes_f = codes.astype(np.float32)  # what a lowered plan keeps
            for count in (25, 200):
                frames = new_rng(4).standard_normal((count, in_dim))
                int8_cases.append((
                    "linear_int8_rowwise", f"{out_dim}x{in_dim} N={count}",
                    lambda b, w=codes_f, s=scale, f=frames: (
                        lambda: kernels.linear_int8_rowwise(w, s, f, backend=b)
                    ),
                ))
    for op, label, make in int8_cases:
        medians = {
            b: median_seconds(make(b), repeats) for b in INT8_SPARSE_BACKENDS
        }
        baseline = medians["numpy"]
        for backend in INT8_SPARSE_BACKENDS:
            rows.append({
                "op": op,
                "size": label,
                "backend": backend,
                "median_s": medians[backend],
                "speedup_vs_baseline": baseline / medians[backend],
                "baseline": "numpy",
            })
    return rows


def bench_recurrent(repeats: int) -> List[Dict]:
    rows = []
    configs = [
        ("gru_sequence", GRU, (100, 16, 64)),
        ("gru_sequence", GRU, (100, 16, 256)),
        ("lstm_sequence", LSTM, (100, 16, 64)),
    ]
    input_dim, num_layers = 40, 2
    for op, module_cls, (seq_len, batch, hidden) in configs:
        rng = new_rng(0)
        model = module_cls(input_dim, hidden, num_layers=num_layers, rng=0)
        x = Tensor(rng.standard_normal((seq_len, batch, input_dim)))
        label = f"T={seq_len} B={batch} H={hidden} L={num_layers}"

        model.train()

        def tape_run():
            # Train-mode forward takes the fused-BPTT path on vectorized
            # backends now, so the tape baseline must pin "reference".
            with kernels.use_backend("reference"):
                return model(x)

        medians = {"tensor_tape": median_seconds(tape_run, repeats)}
        model.eval()
        # "compiled" registers these ops as aliases of the numpy
        # implementations; a row for it would time numpy against itself.
        for backend in ("reference", "numpy"):
            def run(b=backend):
                with kernels.use_backend(b):
                    return model(x)

            medians[backend] = median_seconds(run, repeats)
        baseline = medians["tensor_tape"]
        for backend, median in medians.items():
            rows.append({
                "op": op,
                "size": label,
                "backend": backend,
                "median_s": median,
                "speedup_vs_baseline": baseline / median,
                "baseline": "tensor_tape",
            })
    return rows


def random_sparse_csr(size: int, density: float, seed: int = 0) -> CSRMatrix:
    """Build a random-sparsity CSR matrix directly (no dense intermediate),
    so server-scale cases don't materialize a multi-GB dense array."""
    rng = new_rng(seed)
    row_nnz = rng.binomial(size, density, size=size)
    row_ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=row_ptr[1:])
    cols = np.concatenate(
        [np.sort(rng.choice(size, k, replace=False)) for k in row_nnz]
    ).astype(np.int64)
    return CSRMatrix(
        shape=(size, size),
        values=rng.standard_normal(int(row_ptr[-1])),
        col_indices=cols,
        row_ptr=row_ptr,
    )


def bench_int8(repeats: int) -> List[Dict]:
    """Int8 kernels vs the float numpy backend at 90% sparsity.

    The acceptance-tracked case is the 8192x8192 spmv: at that size the
    float64 path's working set (~54 MB values + gathers) is firmly out of
    cache while the int8 path moves 1/8th-1/4th the bytes — which is the
    regime the quantized backend exists for.
    """
    rows = []
    for size in (1024, 8192):
        csr = random_sparse_csr(size, density=0.1, seed=0)
        x = new_rng(1).standard_normal(size)
        label = f"{size}x{size} d=0.10"
        medians = {
            "numpy_float64": median_seconds(lambda: csr.spmv(x), repeats),
            "numpy_int8": median_seconds(
                lambda: kernels.spmv_int8(csr, x), repeats
            ),
        }
        baseline = medians["numpy_float64"]
        for backend, median in medians.items():
            rows.append({
                "op": "csr_spmv_int8",
                "size": label,
                "backend": backend,
                "median_s": median,
                "speedup_vs_baseline": baseline / median,
                "baseline": "numpy_float64",
            })
    return rows


def bench_engine_forward(repeats: int) -> List[Dict]:
    """Compiled batched engine vs the per-utterance eval-mode Module path."""
    seq_len, batch, input_dim = 100, 16, 40
    model = GRUAcousticModel(
        AcousticModelConfig(input_dim=input_dim, hidden_size=64, num_layers=2),
        rng=0,
    ).eval()
    rng = new_rng(3)
    utterances = [rng.standard_normal((seq_len, input_dim)) for _ in range(batch)]
    batched = np.stack(utterances, axis=1)
    label = f"T={seq_len} B={batch} H=64 L=2"

    def eager():
        return [model(Tensor(u[:, None, :])) for u in utterances]

    medians = {"eager_per_utterance": median_seconds(eager, repeats)}
    plans = {
        "engine_packed": engine.compile_model(model),
        "engine_fp16": engine.compile_model(model, scheme="fp16"),
        "engine_int8": engine.compile_model(model, scheme="int8"),
    }
    for name, plan in plans.items():
        medians[name] = median_seconds(lambda p=plan: p.forward_batch(batched), repeats)
    baseline = medians["eager_per_utterance"]
    return [
        {
            "op": "model_forward",
            "size": label,
            "backend": backend,
            "median_s": median,
            "speedup_vs_baseline": baseline / median,
            "baseline": "eager_per_utterance",
        }
        for backend, median in medians.items()
    ]


def bench_engine(repeats: int) -> List[Dict]:
    """The BENCH_engine.json suite: batched forward + int8 kernels."""
    return bench_engine_forward(max(3, repeats // 3)) + bench_int8(repeats)


def bench_streaming(repeats: int) -> List[Dict]:
    """The BENCH_serving.json suite: streamed vs offline serving.

    Eight concurrent sessions feed 25-frame chunks round-robin through a
    :class:`~repro.engine.streaming.StreamScheduler`; the offline
    baseline decodes the same utterances whole through ``serve_stream``.
    Reported: the full-workload wall-clock ratio (what chunk-granular
    state carry costs or buys) and the per-chunk p50/p95 submit→decode
    latencies, gated by the machine-independent p95/p50 tail ratio.
    """
    from repro.eval.stream_bench import (
        StreamBenchConfig,
        _fabric_pass,
        _stream_pass,
        build_stream_workload,
    )

    config = StreamBenchConfig(repeats=1)
    plan, features, serving = build_stream_workload(config)
    total_frames = sum(len(utterance) for utterance in features)
    size = (
        f"S={config.num_sessions} chunk={config.chunk_frames} "
        f"{total_frames}f H={config.hidden_size} L=2"
    )

    all_stats: List = []

    def offline():
        return engine.serve_stream(plan, features, serving)

    def streaming():
        hypotheses, stats = _stream_pass(plan, features, config)
        all_stats.append(stats)
        return hypotheses

    medians = interleaved_medians(
        {"offline_batched": offline, "streaming_chunked": streaming}, repeats
    )
    baseline = medians["offline_batched"]
    rows = [
        {
            "op": "stream_decode",
            "size": size,
            "backend": backend,
            "median_s": median,
            "speedup_vs_baseline": baseline / median,
            "baseline": "offline_batched",
            "sessions_per_s": config.num_sessions / median,
        }
        for backend, median in medians.items()
    ]
    p50 = float(np.median([stats.p50_latency_s for stats in all_stats]))
    p95 = float(np.median([stats.p95_latency_s for stats in all_stats]))
    rows += [
        {
            "op": "stream_chunk_latency",
            "size": size,
            "backend": "p50",
            "median_s": p50,
            "speedup_vs_baseline": 1.0,
            "baseline": "p50",
        },
        {
            # backend == baseline exempts the row from the absolute
            # median_s criterion (raw tail latency is machine-dependent);
            # what the gate tracks is speedup_vs_baseline — the
            # machine-independent p50/p95 tail ratio.
            "op": "stream_chunk_latency",
            "size": size,
            "backend": "p95",
            "median_s": p95,
            "speedup_vs_baseline": p50 / p95 if p95 else 1.0,
            "baseline": "p95",
        },
    ]

    # Multi-worker fabric rows: the same workload served through a
    # supervised two-worker fabric, plain and with an injected crash.
    import tempfile
    from pathlib import Path as _Path

    from repro.engine.artifact import save_plan

    offline_hyps, _ = engine.serve_stream(plan, features, serving)
    fabric_config = StreamBenchConfig(repeats=1, workers=2)
    chaos_config = StreamBenchConfig(repeats=1, workers=2, chaos=True)
    fleet_rollups: List = []

    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as tmp:
        artifact = _Path(tmp) / "model.plan.npz"
        save_plan(artifact, plan)

        def fabric():
            hypotheses, _ = _fabric_pass(artifact, features, fabric_config)
            return hypotheses

        def chaos():
            hypotheses, fleet = _fabric_pass(artifact, features, chaos_config)
            fleet_rollups.append((hypotheses, fleet))
            return hypotheses

        fabric_medians = interleaved_medians(
            {"fabric_workers2": fabric, "fabric_chaos": chaos}, repeats
        )

    rows.append(
        {
            "op": "stream_decode",
            "size": size,
            "backend": "fabric_workers2",
            "median_s": fabric_medians["fabric_workers2"],
            "speedup_vs_baseline": baseline / fabric_medians["fabric_workers2"],
            "baseline": "offline_batched",
            "sessions_per_s": config.num_sessions
            / fabric_medians["fabric_workers2"],
        }
    )
    # The recovery row is a correctness gate dressed as a bench row:
    # speedup_vs_baseline is 1.0 only when every chaos repeat recovered
    # (restarts observed, all decodes byte-identical to offline), so any
    # recovery failure collapses the tracked ratio and fails --check.
    recovered = all(
        fleet.restarts >= 1 and hypotheses == offline_hyps
        for hypotheses, fleet in fleet_rollups
    )
    rows.append(
        {
            "op": "fabric_recovery",
            "size": size,
            "backend": "chaos_workers2",
            "median_s": fabric_medians["fabric_chaos"],
            "speedup_vs_baseline": 1.0 if recovered else 1e-9,
            "baseline": "chaos_workers2",
            "restarts": max(fleet.restarts for _, fleet in fleet_rollups),
            "sessions_rehomed": max(
                fleet.sessions_rehomed for _, fleet in fleet_rollups
            ),
        }
    )
    return rows


def bench_autotune(repeats: int) -> List[Dict]:
    """The BENCH_autotune.json suite: measured tune_plan vs the default
    engine configuration, plus the simulated-vs-measured tile ranking.

    The first rows come from the tuner's own measurements: each
    ``default_config`` row is the baseline the search anchors on, each
    ``tuned_plan`` row is the winning candidate of the joint
    scheme × format × tile search (the mixed case adds the per-slot
    ``"mixed"`` scheme and BSPC row-block candidates to the space).  The
    default configuration is always in the candidate set, so the tuned
    speedup is >= 1.0 by construction — that invariant is *enforced
    here* (a violation means the baseline fell out of the search and the
    bench fails outright; the recorded speedups sit too close to 1.0 for
    the ``--check`` ratio criterion to detect it).

    The ``tile_ranking`` row publishes how well the analytic cost
    model's tile pick holds up on the host: its tracked ratio is
    ``sim_pick_efficiency`` (measured-best latency over the measured
    latency of the simulator's pick, 1.0 = the cost model loses
    nothing).  The row is its own ``--check`` baseline, so host drift
    cannot fail it on absolute time — only the efficiency collapsing
    can.
    """
    from repro.compiler.autotune import (
        calibrate_cost_model,
        collect_cost_samples,
        compare_tile_rankings,
        default_tile_candidates,
        tune_plan,
    )
    from repro.eval.tune import TuneConfig, build_tune_workload

    cases = [
        ("dense", TuneConfig(hidden_size=64, seq_len=50, batch=8, prune=False)),
        (
            "bsp-16x",
            TuneConfig(
                hidden_size=192, seq_len=50, batch=8,
                prune=True, col_rate=8.0, row_rate=2.0,
            ),
        ),
        (
            "bsp-16x-mixed",
            TuneConfig(
                hidden_size=192, seq_len=50, batch=8,
                prune=True, col_rate=8.0, row_rate=2.0,
                schemes=(None, "mixed"), tiles=(4, 8),
            ),
        ),
    ]
    rows = []
    for label, config in cases:
        model, sample = build_tune_workload(config)
        # Per-candidate timing repeats: each forward is milliseconds, so
        # extra repeats are cheap and keep the winner out of timer noise.
        result = tune_plan(
            model,
            sample,
            schemes=config.schemes,
            tiles=default_tile_candidates(config.tiles) if config.tiles
            else None,
            repeats=max(5, repeats // 5),
        )
        if result.speedup < 1.0:
            raise RuntimeError(
                f"tune_plan invariant broken on {label!r}: tuned plan is "
                f"{1.0 / result.speedup:.2f}x slower than the default "
                "configuration it was supposed to anchor on"
            )
        size = (
            f"T={config.seq_len} B={config.batch} "
            f"H={config.hidden_size} L={config.num_layers} {label}"
        )
        rows += [
            {
                "op": "autotuned_forward",
                "size": size,
                "backend": "default_config",
                "median_s": result.baseline_s,
                "speedup_vs_baseline": 1.0,
                "baseline": "default_config",
            },
            {
                "op": "autotuned_forward",
                "size": size,
                "backend": "tuned_plan",
                "median_s": result.best.measured_s,
                "speedup_vs_baseline": result.speedup,
                "baseline": "default_config",
                "formats": result.best.describe_formats(),
                "scheme": result.best.scheme or "none",
                "row_block": result.best.row_block,
            },
        ]

    # Simulated-vs-measured tile ranking on the pruned workload: does
    # following the analytic cost model's row-block pick cost wall clock?
    model, sample = build_tune_workload(cases[1][1])
    ranking = compare_tile_rankings(
        model, sample, row_blocks=(2, 8, 32), repeats=max(5, repeats // 5)
    )
    rows.append(
        {
            "op": "tile_ranking",
            "size": f"rb={','.join(str(rb) for rb in ranking.row_blocks)}",
            "backend": "sim_pick",
            "median_s": ranking.measured_s[ranking.sim_pick],
            "speedup_vs_baseline": ranking.sim_pick_efficiency,
            "baseline": "sim_pick",
            "sim_pick": ranking.sim_pick,
            "measured_pick": ranking.measured_pick,
            "pairwise_agreement": ranking.pairwise_agreement,
        }
    )

    # The same ranking after host calibration: fit the cost model's
    # coefficients (including the per-tile dispatch charge) to measured
    # traces on this machine, then re-rank with the fitted device.  The
    # tracked ratio is again sim_pick_efficiency — following the
    # *calibrated* model's pick should cost (near) nothing, which is the
    # whole point of calibrating.
    samples = collect_cost_samples(
        model, sample, row_blocks=(2, 8, 32), repeats=max(5, repeats // 5)
    )
    calibration = calibrate_cost_model(samples)
    calibrated = compare_tile_rankings(
        model,
        sample,
        row_blocks=(2, 8, 32),
        device=calibration.device,
        repeats=max(5, repeats // 5),
    )
    rows.append(
        {
            "op": "tile_model_calibrated",
            "size": f"rb={','.join(str(rb) for rb in calibrated.row_blocks)}",
            "backend": "sim_pick_calibrated",
            "median_s": calibrated.measured_s[calibrated.sim_pick],
            "speedup_vs_baseline": calibrated.sim_pick_efficiency,
            "baseline": "sim_pick_calibrated",
            "sim_pick": calibrated.sim_pick,
            "measured_pick": calibrated.measured_pick,
            "pairwise_agreement": calibrated.pairwise_agreement,
            "fit_error_reduction": calibration.error_reduction,
            "tile_dispatch_us": calibration.tile_dispatch_us,
        }
    )
    return rows


# Training cases run per kernel backend; the tape is the seed baseline.
TRAIN_BACKENDS = {"tensor_tape": "reference", "fused_numpy": "numpy"}

#: TIMIT-scale utterances (~0.5-2.5 s at a 10 ms hop → 55-240 frames);
#: the default SynthConfig's very short utterances underrepresent the
#: sequence lengths the prune→retrain loop actually trains on.
TRAIN_SYNTH = SynthConfig(min_phones=8, max_phones=24, min_duration=4, max_duration=10)


def _training_model() -> GRUAcousticModel:
    return GRUAcousticModel(
        AcousticModelConfig(input_dim=40, hidden_size=64, num_layers=2), rng=0
    ).train()


def bench_bptt_step(repeats: int) -> List[Dict]:
    """One forward + full BPTT backward on a fixed (T=150, B=8) batch."""
    seq_len, batch, input_dim = 150, 8, 40
    rng = new_rng(0)
    x = Tensor(rng.standard_normal((seq_len, batch, input_dim)))
    labels = rng.integers(0, NUM_CLASSES, size=seq_len * batch)

    def make_step(backend: str):
        model = _training_model()

        def run():
            with kernels.use_backend(backend):
                model.zero_grad()
                logits = model(x)
                t, b, c = logits.shape
                F.cross_entropy(logits.reshape(t * b, c), labels).backward()

        return run

    label = f"T={seq_len} B={batch} H=64 L=2"
    medians = interleaved_medians(
        {name: make_step(backend) for name, backend in TRAIN_BACKENDS.items()},
        repeats,
    )
    baseline = medians["tensor_tape"]
    return [
        {
            "op": "bptt_step",
            "size": label,
            "backend": name,
            "median_s": median,
            "speedup_vs_baseline": baseline / median,
            "baseline": "tensor_tape",
        }
        for name, median in medians.items()
    ]


def bench_train_epochs(repeats: int) -> List[Dict]:
    """Full synthetic-TIMIT epochs: dense, and the ADMM prune→retrain loop.

    The ADMM case keeps a :class:`BSPPruner` inside its Step-1 ADMM phase
    for every timed epoch, so each repetition pays the full prune→retrain
    cost: penalty gradients, masked gradients, the Z/U dual update, and
    the ramped block-column projection.
    """
    train_set, test_set = make_corpus(16, 4, TRAIN_SYNTH, seed=0)

    def make_epoch(backend: str, with_admm: bool):
        model = _training_model()
        trainer = Trainer(
            model, train_set, test_set, TrainerConfig(batch_size=8, seed=0)
        )
        method = None
        if with_admm:
            # A phase budget far beyond the timed repeats keeps every
            # timed epoch inside the ADMM prune→retrain loop.
            method = BSPPruner(
                model.prunable_parameters(),
                BSPConfig(col_rate=8, row_rate=1.25, step1_admm_epochs=10_000),
            )

        def run():
            with kernels.use_backend(backend):
                trainer.train_epoch(method)

        return run

    size = "16 timit-scale utts B=8 H=64 L=2"
    ops = (("train_epoch", False), ("admm_prune_retrain_epoch", True))
    # One round-robin over all four cases: dense and ADMM epochs face the
    # same machine-speed drift, so the two ratios stay mutually consistent.
    medians = interleaved_medians(
        {
            (op, name): make_epoch(backend, with_admm)
            for op, with_admm in ops
            for name, backend in TRAIN_BACKENDS.items()
        },
        repeats,
    )
    rows = []
    for op, _ in ops:
        baseline = medians[(op, "tensor_tape")]
        for name in TRAIN_BACKENDS:
            rows.append({
                "op": op,
                "size": size,
                "backend": name,
                "median_s": medians[(op, name)],
                "speedup_vs_baseline": baseline / medians[(op, name)],
                "baseline": "tensor_tape",
            })
    return rows


def bench_admm_projection(repeats: int) -> List[Dict]:
    """The ADMM Z-update's bank-balanced projection, loop vs vectorized."""
    weight = new_rng(1).standard_normal((512, 1024))
    bank_size, rate = 64, 8.0
    label = "512x1024 bank=64 rate=8"
    medians = interleaved_medians(
        {
            "loop": lambda: _project_bank_balanced_loop(weight, bank_size, rate),
            "numpy": lambda: project_bank_balanced(weight, bank_size, rate),
        },
        repeats,
    )
    baseline = medians["loop"]
    return [
        {
            "op": "admm_projection",
            "size": label,
            "backend": backend,
            "median_s": median,
            "speedup_vs_baseline": baseline / median,
            "baseline": "loop",
        }
        for backend, median in medians.items()
    ]


def bench_distributed_epochs(repeats: int) -> List[Dict]:
    """Data-parallel epoch throughput: 1 → 2 → 4 gradient workers.

    The single-process fused trainer is the baseline; the ``dp_workers1``
    row isolates the pure IPC cost of the chunked weight-broadcast /
    gradient all-reduce protocol, and the 2/4-worker rows show what the
    fork-based data parallelism buys on top of it at this model scale.
    """
    from repro.training import DistConfig, DistributedTrainer

    train_set, test_set = make_corpus(16, 4, TRAIN_SYNTH, seed=0)
    size = "16 timit-scale utts B=8 H=64 L=2"

    trainers = {"single_process": Trainer(
        _training_model(), train_set, test_set, TrainerConfig(batch_size=8, seed=0)
    )}
    for workers in (1, 2, 4):
        trainers[f"dp_workers{workers}"] = DistributedTrainer(
            _training_model(),
            train_set,
            test_set,
            TrainerConfig(batch_size=8, seed=0),
            DistConfig(num_workers=workers),
        )
    try:
        medians = interleaved_medians(
            {
                name: (lambda t=trainer: t.train_epoch())
                for name, trainer in trainers.items()
            },
            repeats,
        )
    finally:
        for trainer in trainers.values():
            if isinstance(trainer, DistributedTrainer):
                trainer.close()
    baseline = medians["single_process"]
    return [
        {
            "op": "dp_train_epoch",
            "size": size,
            "backend": name,
            "median_s": median,
            "speedup_vs_baseline": baseline / median,
            "baseline": "single_process",
        }
        for name, median in medians.items()
    ]


def bench_sweep_recovery(repeats: int) -> List[Dict]:
    """Chaos-resume overhead + exactness gate for checkpointed training.

    Runs one BSP prune→retrain cell three ways: uninterrupted, and
    crashed mid-epoch then resumed from its atomic checkpoint.  Like
    ``fabric_recovery``, the gate row is a correctness check dressed as
    a bench row: ``speedup_vs_baseline`` is 1.0 only when the resumed
    run's final weights and loss curve are bit-identical to the clean
    run, so any resume drift collapses the tracked ratio and fails
    ``--check``.  The overhead of crash + reload is the machine-portable
    ``chaos_overhead`` ratio carried alongside.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.training import CheckpointConfig, run_checkpointed

    train_set, test_set = make_corpus(8, 2, TRAIN_SYNTH, seed=0)
    size = "8 timit-scale utts B=4 H=32 L=2 bsp-4x"
    total_epochs = 4

    class _Boom(Exception):
        pass

    def make_model():
        return GRUAcousticModel(
            AcousticModelConfig(input_dim=40, hidden_size=32, num_layers=2),
            rng=0,
        ).train()

    def build():
        model = make_model()
        trainer = Trainer(
            model, train_set, test_set, TrainerConfig(batch_size=4, seed=0)
        )
        method = BSPPruner(
            model.prunable_parameters(),
            BSPConfig(col_rate=4, row_rate=1.25, step1_admm_epochs=1,
                      step1_retrain_epochs=1, step2_admm_epochs=1,
                      step2_retrain_epochs=1),
        )
        return model, trainer, method

    exact_flags: List[bool] = []

    def clean():
        model, trainer, method = build()
        with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
            run_checkpointed(
                trainer, method,
                CheckpointConfig(path=_Path(tmp) / "ckpt.npz"),
                max_epochs=total_epochs,
            )
        return model.state_dict(), list(trainer.log.losses)

    def chaos():
        model, trainer, method = build()
        with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
            config = CheckpointConfig(path=_Path(tmp) / "ckpt.npz")

            def crash_at(step):
                if step == 3:
                    raise _Boom()

            try:
                run_checkpointed(trainer, method, config,
                                 max_epochs=total_epochs, on_step=crash_at)
            except _Boom:
                pass
            # Fresh objects, as a re-spawned cell attempt would build.
            model, trainer, method = build()
            run_checkpointed(trainer, method, config, max_epochs=total_epochs)
        clean_weights, clean_losses = clean_reference
        exact_flags.append(
            all(
                np.array_equal(clean_weights[name], value)
                for name, value in model.state_dict().items()
            )
            and list(trainer.log.losses) == clean_losses
        )
        return model.state_dict()

    clean_reference = clean()
    medians = interleaved_medians({"clean": clean, "chaos_resume": chaos}, repeats)
    recovered = bool(exact_flags) and all(exact_flags)
    return [
        {
            "op": "sweep_cell_train",
            "size": size,
            "backend": "clean",
            "median_s": medians["clean"],
            "speedup_vs_baseline": 1.0,
            "baseline": "clean",
        },
        {
            # Correctness gate: 1.0 only if every chaos repeat resumed
            # bit-identical; the chaos_overhead key tracks the cost of
            # crash + checkpoint reload relative to the clean run.
            "op": "sweep_recovery",
            "size": size,
            "backend": "chaos_resume",
            "median_s": medians["chaos_resume"],
            "speedup_vs_baseline": 1.0 if recovered else 1e-9,
            "baseline": "chaos_resume",
            "chaos_overhead": medians["chaos_resume"] / medians["clean"],
        },
    ]


def bench_training(repeats: int) -> List[Dict]:
    """The BENCH_training.json suite: BPTT step, epochs, ADMM projection,
    data-parallel scaling, and the chaos-resume exactness gate."""
    return (
        bench_bptt_step(max(3, repeats // 3))
        + bench_train_epochs(max(2, repeats // 6))
        + bench_admm_projection(repeats)
        + bench_distributed_epochs(max(2, repeats // 6))
        + bench_sweep_recovery(max(2, repeats // 10))
    )


def rows_by_key(rows: List[Dict]) -> Dict:
    return {(r["op"], r["size"], r["backend"]): r for r in rows}


#: Fields every recorded row must carry for the gate's two criteria.
REQUIRED_ROW_KEYS = ("op", "size", "backend", "median_s", "speedup_vs_baseline")


def load_baseline_rows(path: Path) -> List[Dict]:
    """Read one recorded BENCH_*.json and validate its shape.

    A baseline that cannot be read is a *configuration* error, not a
    perf regression — fail with a message that names the file and what
    is wrong with it instead of a KeyError/JSONDecodeError traceback.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read baseline {path}: {exc}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"baseline {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict) or "results" not in payload:
        raise SystemExit(
            f"baseline {path} has no 'results' key — expected a file "
            "recorded by this script ({'meta': ..., 'results': [...]})"
        )
    rows = payload["results"]
    if not isinstance(rows, list):
        raise SystemExit(
            f"baseline {path}: 'results' must be a list of rows, "
            f"got {type(rows).__name__}"
        )
    for i, row in enumerate(rows):
        missing = [
            key
            for key in REQUIRED_ROW_KEYS
            if not isinstance(row, dict) or key not in row
        ]
        if missing:
            raise SystemExit(
                f"baseline {path}: results[{i}] is missing "
                f"{', '.join(missing)} — re-record it with this script"
            )
    return rows


#: Absolute slowdown below which a ratio violation is treated as timer
#: noise: the fastest tracked rows run in tens of microseconds, where
#: machine jitter alone exceeds 1.5x.  The floor only suppresses
#: *moderate* ratios — past :data:`NOISE_ESCALATION` x the threshold a
#: violation is reported regardless of its absolute size, so a
#: microsecond-scale vectorized op degrading to its Python loop (a
#: ~10x ratio) cannot hide under the floor.
NOISE_FLOOR_S = 2e-4
NOISE_ESCALATION = 3.0


def check_against(baselines: List[Dict], current: List[Dict], threshold: float) -> List[str]:
    """Regression report vs recorded rows, on two criteria:

    * **absolute**: ``median_s`` grew more than ``threshold`` x its
      record (sub-:data:`NOISE_FLOOR_S` deltas are ignored unless the
      ratio exceeds :data:`NOISE_ESCALATION` x the threshold);
    * **relative**: ``speedup_vs_baseline`` — measured against the
      op's own baseline *within the same run*, hence machine-independent
      — collapsed by more than ``threshold`` x.  This is the criterion
      that stays meaningful on hosts slower than the recording machine
      (e.g. CI runners).
    """
    current_by_key = rows_by_key(current)
    problems = []
    for key, recorded in rows_by_key(baselines).items():
        row = current_by_key.get(key)
        if row is None:
            problems.append(f"missing bench row {key} (recorded but not re-run)")
            continue
        ratio = row["median_s"] / recorded["median_s"]
        noise = (
            row["median_s"] - recorded["median_s"] <= NOISE_FLOOR_S
            and ratio <= NOISE_ESCALATION * threshold
        )
        # A row that *is* its op's in-run baseline (the frozen seed
        # implementation) measures machine speed, not code: exempt it
        # from the absolute criterion so host drift can't fail the gate.
        is_baseline = row["backend"] == row.get("baseline")
        if ratio > threshold and not noise and not is_baseline:
            problems.append(
                f"{key[0]} [{key[1]}] {key[2]}: {row['median_s'] * 1e3:.3f}ms "
                f"vs recorded {recorded['median_s'] * 1e3:.3f}ms "
                f"({ratio:.2f}x > {threshold}x)"
            )
        speedup_drop = recorded["speedup_vs_baseline"] / max(
            row["speedup_vs_baseline"], 1e-12
        )
        if speedup_drop > threshold:
            problems.append(
                f"{key[0]} [{key[1]}] {key[2]}: speedup vs in-run baseline "
                f"fell {speedup_drop:.2f}x (now {row['speedup_vs_baseline']:.2f}x, "
                f"recorded {recorded['speedup_vs_baseline']:.2f}x)"
            )
    return problems


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'op':<14} {'size':<28} {'backend':<20} {'median':>10} {'speedup':>8}",
        "-" * 84,
    ]
    for row in rows:
        lines.append(
            f"{row['op']:<14} {row['size']:<28} {row['backend']:<20} "
            f"{row['median_s'] * 1e3:>8.3f}ms {row['speedup_vs_baseline']:>7.1f}x"
        )
    return "\n".join(lines)


def _meta(repeats: int) -> Dict:
    return {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        # full-model/sequence rows are slower and sampled fewer times
        "forward_repeats": max(3, repeats // 3),
        "default_backend": kernels.get_default_backend(),
        "compiled_backend": compiled_backend.available(),
        "compiled_lanes": compiled_backend.lanes(),
        "compiled_kgroup": compiled_backend.kgroup(),
        # small GEMMs stall for milliseconds when BLAS wakes a second
        # thread on a busy 2-core host; a record says how it was pinned
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_kernels.json",
        help="kernel-suite output JSON (default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--engine-out", type=Path, default=REPO_ROOT / "BENCH_engine.json",
        help="engine-suite output JSON (default: repo-root BENCH_engine.json)",
    )
    parser.add_argument(
        "--training-out", type=Path, default=REPO_ROOT / "BENCH_training.json",
        help="training-suite output JSON (default: repo-root BENCH_training.json)",
    )
    parser.add_argument(
        "--serving-out", type=Path, default=REPO_ROOT / "BENCH_serving.json",
        help="streaming-serving-suite output JSON "
        "(default: repo-root BENCH_serving.json)",
    )
    parser.add_argument(
        "--autotune-out", type=Path, default=REPO_ROOT / "BENCH_autotune.json",
        help="measured-autotune-suite output JSON "
        "(default: repo-root BENCH_autotune.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=30,
        help="timed repetitions per case (median is reported)",
    )
    parser.add_argument(
        "--check", type=Path, nargs="+", metavar="BASELINE",
        help="regression gate: re-run the suites and fail if any row in "
        "the given recorded JSON file(s) got slower than --threshold x; "
        "records are not rewritten",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="slowdown ratio that fails --check (default 1.5)",
    )
    args = parser.parse_args(argv)

    kernel_rows = bench_sparse(args.repeats) + bench_recurrent(
        max(3, args.repeats // 3)
    )
    engine_rows = bench_engine(args.repeats)
    training_rows = bench_training(args.repeats)
    serving_rows = bench_streaming(max(3, args.repeats // 3))
    autotune_rows = bench_autotune(args.repeats)
    print(render(
        kernel_rows + engine_rows + training_rows + serving_rows + autotune_rows
    ))

    if args.check:
        current = (
            kernel_rows + engine_rows + training_rows + serving_rows
            + autotune_rows
        )
        problems: List[str] = []
        recorded_keys: set = set()
        for baseline_path in args.check:
            recorded = load_baseline_rows(baseline_path)
            recorded_keys |= set(rows_by_key(recorded))
            problems += check_against(recorded, current, args.threshold)
        # The reverse direction of the missing-row check: a current row
        # no baseline knows about has no record to gate against — either
        # it is newly added (re-record the affected BENCH_*.json) or the
        # wrong baseline files were passed.
        for key in sorted(set(rows_by_key(current)) - recorded_keys):
            problems.append(
                f"current bench row {key} has no recorded baseline "
                "(newly added? re-record the affected BENCH_*.json)"
            )
        if problems:
            print(f"\nREGRESSIONS vs recorded baselines (> {args.threshold}x):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"\ncheck ok: no tracked op slower than {args.threshold}x its record")
        return 0

    args.out.write_text(
        json.dumps({"meta": _meta(args.repeats), "results": kernel_rows}, indent=2)
        + "\n"
    )
    args.engine_out.write_text(
        json.dumps({"meta": _meta(args.repeats), "results": engine_rows}, indent=2)
        + "\n"
    )
    args.training_out.write_text(
        json.dumps({"meta": _meta(args.repeats), "results": training_rows}, indent=2)
        + "\n"
    )
    args.serving_out.write_text(
        json.dumps({"meta": _meta(args.repeats), "results": serving_rows}, indent=2)
        + "\n"
    )
    args.autotune_out.write_text(
        json.dumps({"meta": _meta(args.repeats), "results": autotune_rows}, indent=2)
        + "\n"
    )
    print(
        f"\nwrote {args.out}, {args.engine_out}, {args.training_out}, "
        f"{args.serving_out} and {args.autotune_out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
