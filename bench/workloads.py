"""The five workloads.  Each drives the program through public entry
points only; see ``README.md`` for why each exists.

A workload object is built once per process: ``setup()`` does everything
a user waits for before the first request (the caller times it as
``setup_s``), ``run_pass(tracer)`` is one timed unit of work, and
``layer_metrics`` / ``reference`` are the un-timed extras of a traced or
verifying run.  Every pass ticks the host ruler between its timed calls
(see ``hostspeed.py``) and hands back the host factor it ran under.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro import kernels
from repro.compiler.passes import run_passes
from repro.compiler.pipeline import build_layer_graph
from repro.engine import (
    EngineConfig,
    FabricConfig,
    ServingFabric,
    StreamConfig,
    StreamScheduler,
    StreamingSession,
    compile_model,
    load_plan,
    lower_graph,
    save_plan,
)
from repro.errors import OverloadError
from repro.nn.data import Dataset, SequenceExample
from repro.pruning.bsp import BSPConfig, BSPPruner, bsp_project_masks
from repro.speech.decoder import IncrementalDecoder, decode_utterance
from repro.speech.metrics import collapse_frames, phone_error_rate
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_dataset
from repro.speech.trainer import Trainer, TrainerConfig

import spans
from hostspeed import HostProbe
from replay import KernelReplay, median_us
from spans import NULL_TRACER, MethodProxy, OptimizerProxy

STREAM_SYNTH = SynthConfig(min_phones=6, max_phones=18, min_duration=4, max_duration=10)
TRAIN_SYNTH = SynthConfig(min_phones=8, max_phones=24, min_duration=4, max_duration=10)
#: The paper's 16x point: 8x column-block pruning, 2x row pruning, 8x8 grid.
BSP_16X = dict(col_rate=8, row_rate=2, num_row_strips=8, num_col_blocks=8)
SCHEDULER = StreamConfig(max_batch_size=8, max_wait_frames=175, min_duration=2)
MIN_DURATION = 2
#: Utterance lengths and their order are part of the workload, not of the
#: seed: they are what ``make_dataset`` draws at this seed.  The scheduler
#: batches by length and arrival order alone, so a free draw moves the
#: total by +-10 %, and which utterances end on a full batch (8 ms) or on
#: a flushed tail chunk (2 ms), from seed to seed; that would drown a
#: 10 % bound.  Audio and weights (so BSP masks, logits, transcripts)
#: still vary with ``--seed``.
SHAPE_SEED = 0


def make_utterances(count: int, synth: SynthConfig, seed: int) -> List[SequenceExample]:
    lengths = [len(e.features) for e in make_dataset(count, synth, SHAPE_SEED).examples]
    out = []
    for example, length in zip(make_dataset(count, synth, seed).examples, lengths):
        reps = -(-length // len(example.features))
        out.append(
            SequenceExample(
                features=np.tile(example.features, (reps, 1))[:length],
                labels=np.tile(example.labels, reps)[:length],
            )
        )
    return out


@dataclass
class Pass:
    """What one timed unit of work produced.  ``units_s`` is already read
    against the host ruler; the other times are as the clock gave them."""

    frames: int
    #: Quiet-host time of each stretch the throughput is over: the whole
    #: pass for serving, each epoch for training.  Unit ``i`` is the same
    #: work in every pass, so a run takes its median over the passes.
    units_s: List[float]
    wall_s: float  # start to end, ruler ticks included (what a time budget sums to)
    host_factor: float  # over the whole pass; its latencies are divided by it
    latencies_s: List[float]
    hyps: List[List[int]]
    ops: int  # operations attempted: utterances, or optimizer steps
    failed: int = 0
    counts: Dict[str, float] = field(default_factory=dict)  # exact per-pass counts

    @property
    def rate(self) -> float:
        """Frames per second as the quiet host would read it."""
        return self.frames / sum(self.units_s)


class Reading(NamedTuple):
    wall_s: float  # start to stop, ruler ticks included
    host_factor: float
    quiet_s: float  # wall time minus ticks, over the host factor


class RulerClock:
    """Times a stretch of work and reads it against the host ruler."""

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.mark = probe.mark()
        self.start = perf_counter()

    def stop(self) -> Reading:
        wall = perf_counter() - self.start
        busy = wall - (self.probe.spent_s - self.mark[0])  # ticks are not work
        factor = self.probe.factor_since(self.mark)
        return Reading(wall, factor, busy / factor)


class Workload:
    name = ""
    #: The kinds of work this workload is made of (see hostspeed.py).
    rulers = ("dispatch", "vector")
    has_children = False  # starts worker processes (their memory counts too)

    def __init__(self, smoke: bool, seed: int, out_dir: Path, trace: bool) -> None:
        self.smoke = smoke
        self.seed = seed
        self.out_dir = out_dir
        self.trace = trace
        self.probe = HostProbe(self.rulers)
        self.stages: Dict[str, float] = {}  # set-up stage timings (per-layer)
        self.artifact_bytes = 0

    @contextmanager
    def stage(self, name: str):
        start = perf_counter()
        yield
        self.stages[name] = self.stages.get(name, 0.0) + perf_counter() - start

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def reference(self) -> Optional[List[List[int]]]:
        """Offline hypotheses the timed ones must equal (None: no such check)."""
        return None


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
class Serving(Workload):
    hidden = 512
    scheme: Optional[str] = "int8"
    prune = True
    chunk = 25
    utterances = 32

    def setup(self) -> None:
        hidden = 32 if self.smoke else self.hidden
        count = 4 if self.smoke else self.utterances
        self.features = [e.features for e in make_utterances(count, STREAM_SYNTH, self.seed)]
        self.frames = sum(len(f) for f in self.features)
        self.chunks = sum(math.ceil(len(f) / self.chunk) for f in self.features)
        model = GRUAcousticModel(
            AcousticModelConfig(hidden_size=hidden, num_layers=2), rng=self.seed
        ).eval()
        if self.prune:
            with self.stage("pruning.project_s"):
                masks = bsp_project_masks(model.prunable_weights(), BSPConfig(**BSP_16X))
            for name, param in model.prunable_parameters().items():
                param.data[...] = masks[name].apply_to_array(param.data)
        config = EngineConfig(sparse_format="auto")
        if self.trace:
            # compile_model, taken apart so each stage can be timed.
            with self.stage("compiler.build_graph_s"):
                graph = build_layer_graph(
                    model, scheme=self.scheme, options=config.graph_options()
                )
            with self.stage("compiler.passes_s"):
                run_passes(graph)
            with self.stage("engine.plan.lower_s"):
                self.plan = lower_graph(graph, config)
        else:
            self.plan = compile_model(model, self.scheme, config)
        self.artifact = self.out_dir / "model.plan.npz"
        with self.stage("engine.artifact.save_s"):
            save_plan(self.artifact, self.plan)
        self.artifact_bytes = self.artifact.stat().st_size
        if self.trace:
            with self.stage("engine.artifact.load_s"):
                load_plan(self.artifact)
        self.start()
        self.run_pass(NULL_TRACER)  # warm-up

    def start(self) -> None:
        """Bring up whatever serves the traffic (nothing, in process)."""

    def close(self) -> None:
        self.artifact.unlink(missing_ok=True)

    def reference(self) -> List[List[int]]:
        self.reference_labels = []
        hyps = []
        for x in self.features:
            logits = self.plan.forward_utterance(x)
            self.reference_labels.append(logits.argmax(axis=1))
            hyps.append(decode_utterance(logits, MIN_DURATION))
        return hyps

    # -- traced extras ------------------------------------------------------
    def layer_metrics(self, traced, tracer, rows, proxy_shapes) -> Dict[str, float]:
        n = len(traced)
        out = dict(self.stages)
        slots = [slot for _, _, slot in self.plan.graph.slots()]
        out["kernels.macs_per_frame"] = float(sum(slot.nnz for slot in slots))
        out["kernels.weight_bytes_per_frame"] = float(self.plan.nbytes())
        out["engine.plan.nbytes"] = float(self.plan.nbytes())
        run_chunk = rows.get("engine.plan.run_chunk")
        if run_chunk:
            replay = KernelReplay(self.plan)
            if replay.unmodelled:
                print("kernel replay leaves out:", ", ".join(replay.unmodelled))
            kernel_s = sum(
                replay.chunk_us(t, b) * calls for (t, b), calls in proxy_shapes.items()
            ) * 1e-6
            batch = SCHEDULER.max_batch_size
            out.update(
                {
                    "engine.plan.run_chunk_s": run_chunk["total_s"] / n,
                    "engine.plan.run_chunk_calls": run_chunk["calls"] / n,
                    "engine.plan.run_chunk_us_per_frame": run_chunk["total_s"]
                    / (n * self.frames)
                    * 1e6,
                    "kernels.est_share": kernel_s / run_chunk["total_s"],
                    "engine.plan.dispatch_share": 1.0 - kernel_s / run_chunk["total_s"],
                    "kernels.bspc_spmm_int8_us": replay.named_us("bspc_spmm_int8", True, batch),
                    "kernels.bspc_spmv_int8_us": replay.named_us("bspc_spmm_int8", True, 1),
                    "kernels.linear_int8_us": replay.named_us(
                        "linear_int8", False, batch * self.chunk
                    ),
                    "kernels.dense_step_gemm_us": replay.named_us("dense_gemm", True, batch),
                }
            )
        streaming_self = sum(
            row["self_s"] for name, row in rows.items() if name.startswith("engine.streaming.")
        )
        if streaming_self:
            out["engine.streaming.self_s"] = streaming_self / n
            out["engine.streaming.self_us_per_chunk"] = streaming_self / (n * self.chunks) * 1e6
        for key in ("batches", "mean_batch_size", "wait_frames"):
            if key in traced[0].counts:
                out[f"engine.streaming.{key}"] = traced[0].counts[key]
        out["speech.decoder.replay_us_per_frame"] = self.decoder_replay_us() / self.frames
        return out

    def decoder_replay_us(self) -> float:
        """Time the argmax label streams of the reference pass through
        fresh incremental decoders, chunked like the traffic."""

        def replay() -> None:
            for labels in self.reference_labels:
                decoder = IncrementalDecoder(MIN_DURATION)
                for start in range(0, len(labels), self.chunk):
                    decoder.push(labels[start : start + self.chunk])
                decoder.finish()

        return median_us(replay, repeats=5)


def stream_pass(server, features, chunk, tracer, probe, layer: str, **feed_kwargs) -> Pass:
    """All utterances as concurrent sessions, fed round-robin one chunk at
    a time; a session is finished right after its last chunk.  ``server``
    is a ``StreamScheduler`` or a ``ServingFabric`` (same session API)."""
    hyps: List[List[int]] = [[] for _ in features]
    latencies = []
    shed = set()
    clock = RulerClock(probe)
    with tracer.span("bench.pass"):
        with tracer.span(f"{layer}.open"):
            sids = [server.open() for _ in features]
        live = list(range(len(features)))
        offset = 0
        while live:
            still = []
            for i in live:
                sid = sids[i]
                last = offset + chunk >= len(features[i])
                start = perf_counter()
                with tracer.span(f"{layer}.feed", sid):
                    try:
                        server.feed(sid, features[i][offset : offset + chunk], **feed_kwargs)
                    except OverloadError:
                        shed.add(i)
                with tracer.span(f"{layer}.poll", sid):
                    hyps[i] += server.poll(sid)
                if last:
                    with tracer.span(f"{layer}.finish", sid):
                        hyps[i] += server.finish(sid)
                else:
                    still.append(i)
                took = perf_counter() - start
                if last:
                    latencies.append(took)
                with tracer.span("bench.ruler"):
                    probe.after(took)
            live = still
            offset += chunk
    reading = clock.stop()
    return Pass(
        frames=sum(len(f) for f in features), units_s=[reading.quiet_s],
        wall_s=reading.wall_s, host_factor=reading.host_factor, latencies_s=latencies,
        hyps=hyps, ops=len(features), failed=len(shed),
    )


def scheduler_pass(plan, features, chunk, tracer, probe) -> Pass:
    scheduler = StreamScheduler(plan, SCHEDULER)
    result = stream_pass(scheduler, features, chunk, tracer, probe, "engine.streaming")
    stats = scheduler.stats
    result.counts = {
        "batches": stats.batches,
        "mean_batch_size": stats.mean_batch_size,
        "wait_frames": stats.wait_frames,
    }
    return result


class StreamBspInt8(Serving):
    name = "stream_bsp_int8"

    def run_pass(self, tracer, proxy=None) -> Pass:
        return scheduler_pass(proxy or self.plan, self.features, self.chunk, tracer, self.probe)


class StreamDenseFloat(StreamBspInt8):
    name = "stream_dense_float"
    rulers = ("blas",)
    scheme = None
    prune = False


class SingleUser1024(Serving):
    name = "single_user_1024"
    hidden = 1024
    chunk = 10

    def run_pass(self, tracer, proxy=None) -> Pass:
        plan = proxy or self.plan
        hyps = []
        latencies = []
        clock = RulerClock(self.probe)
        with tracer.span("bench.pass"):
            for i, x in enumerate(self.features):
                session = StreamingSession(plan, min_duration=MIN_DURATION)
                hyp = []
                for offset in range(0, len(x), self.chunk):
                    start = perf_counter()
                    with tracer.span("engine.streaming.feed", i):
                        hyp += session.feed(x[offset : offset + self.chunk])
                    latencies.append(perf_counter() - start)
                    with tracer.span("bench.ruler"):
                        self.probe.after(latencies[-1])
                with tracer.span("engine.streaming.finish", i):
                    hyp += session.finish()
                hyps.append(hyp)
        reading = clock.stop()
        return Pass(
            frames=self.frames, units_s=[reading.quiet_s], wall_s=reading.wall_s,
            host_factor=reading.host_factor, latencies_s=latencies, hyps=hyps, ops=len(hyps),
        )


class FabricStream(Serving):
    name = "fabric_stream"
    has_children = True

    def start(self) -> None:
        with self.stage("engine.fabric.start_s"):
            self.fabric = ServingFabric(
                self.artifact, FabricConfig(num_workers=2, stream=SCHEDULER)
            )

    def close(self) -> None:
        self.fabric.close()
        super().close()

    def run_pass(self, tracer, proxy=None) -> Pass:
        return stream_pass(
            self.fabric, self.features, self.chunk, tracer, self.probe, "engine.fabric",
            block=True,
        )

    def layer_metrics(self, traced, tracer, rows, proxy_shapes) -> Dict[str, float]:
        out = super().layer_metrics(traced, tracer, rows, proxy_shapes)
        fleet = self.fabric.stats()
        in_process = [
            scheduler_pass(self.plan, self.features, self.chunk, NULL_TRACER, self.probe).rate
            for _ in range(3)
        ]
        out.update(
            {
                "engine.fabric.feed_call_us_p50": statistics.median(
                    spans.durations(tracer.spans, "engine.fabric.feed")
                )
                * 1e6,
                "engine.fabric.finish_call_ms_p50": statistics.median(
                    spans.durations(tracer.spans, "engine.fabric.finish")
                )
                * 1e3,
                "engine.fabric.vs_inprocess_x": statistics.median(p.rate for p in traced)
                / statistics.median(in_process),
                "engine.fabric.restarts": float(fleet.restarts),
                "engine.fabric.chunks_shed": float(fleet.chunks_shed),
                "engine.fabric.max_backlog_frames": float(fleet.max_backlog_frames_seen),
                "engine.streaming.mean_batch_size": fleet.mean_batch_size,
            }
        )
        return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
class PruneRetrain(Workload):
    name = "prune_retrain"
    rulers = ("dispatch", "blas")

    def setup(self) -> None:
        if self.smoke:
            self.hidden, n_train, n_test, self.dense_epochs = 32, 8, 4, 1
            phases = dict(step1_admm_epochs=1, step1_retrain_epochs=1,
                          step2_admm_epochs=1, step2_retrain_epochs=1)
        else:
            self.hidden, n_train, n_test, self.dense_epochs = 128, 32, 16, 6
            phases = dict(step1_admm_epochs=2, step1_retrain_epochs=1,
                          step2_admm_epochs=2, step2_retrain_epochs=1)
        self.bsp = BSPConfig(**BSP_16X, **phases)
        self.train = Dataset(make_utterances(n_train, TRAIN_SYNTH, self.seed))
        self.test = Dataset(make_utterances(n_test, TRAIN_SYNTH, self.seed + 1_000_003))
        self.frames_per_epoch = sum(len(e.features) for e in self.train.examples)
        self.artifact = self.out_dir / "pruned.plan.npz"
        # Warm-up: one dense epoch on a model that is then thrown away.
        self._trainer().train_epoch()

    def _trainer(self) -> Trainer:
        model = GRUAcousticModel(
            AcousticModelConfig(hidden_size=self.hidden, num_layers=2), rng=self.seed
        )
        return Trainer(
            model, self.train, self.test, TrainerConfig(batch_size=8, seed=self.seed)
        )

    def close(self) -> None:
        self.artifact.unlink(missing_ok=True)

    def run_pass(self, tracer, proxy=None) -> Pass:
        """Dense epochs, BSP (ADMM) pruning to ``finished``, evaluate,
        compile int8, decode the test set through the compiled plan."""
        probe = self.probe
        clock = RulerClock(probe)
        with tracer.span("bench.pass"):
            trainer = self._trainer()
            if tracer.enabled:
                trainer.optimizer = OptimizerProxy(trainer.optimizer, tracer)
            step_s: List[float] = []
            epochs_s: List[float] = []
            bad_steps = [0]
            mark = [0.0]

            def on_step(done, losses) -> None:
                step_s.append(perf_counter() - mark[0])
                if not math.isfinite(losses[-1]):
                    bad_steps[0] += 1
                with tracer.span("bench.ruler"):
                    probe.after(step_s[-1])
                mark[0] = perf_counter()

            def epoch(method, phase: str) -> None:
                epoch_clock = RulerClock(probe)
                mark[0] = epoch_clock.start
                with tracer.span("speech.trainer.epoch", phase):
                    trainer.train_epoch(method, on_step=on_step)
                epochs_s.append(epoch_clock.stop().quiet_s)

            for _ in range(self.dense_epochs):
                epoch(None, "dense")
            pruner = BSPPruner(trainer.model.prunable_parameters(), self.bsp)
            method = MethodProxy(pruner, tracer) if tracer.enabled else pruner
            while not pruner.finished:
                epoch(method, pruner.phase)
            with tracer.span("speech.trainer.evaluate"):
                float_per = trainer.evaluate(min_duration=MIN_DURATION).per
            with tracer.span("engine.plan.compile"):
                plan = compile_model(
                    trainer.model.eval(), "int8", EngineConfig(sparse_format="auto")
                )
            with tracer.span("engine.artifact.save"):
                save_plan(self.artifact, plan)
            self.artifact_bytes = self.artifact.stat().st_size
            with tracer.span("engine.plan.forward_utterance"):
                hyps = [
                    decode_utterance(plan.forward_utterance(e.features), MIN_DURATION)
                    for e in self.test.examples
                ]
        reading = clock.stop()
        self.model = trainer.model
        per = phone_error_rate(
            [collapse_frames(e.labels) for e in self.test.examples], hyps
        )
        return Pass(
            # The rate is over the training epochs only, dense and ADMM together.
            frames=len(epochs_s) * self.frames_per_epoch,
            units_s=epochs_s,
            wall_s=reading.wall_s,
            host_factor=reading.host_factor,
            latencies_s=step_s,
            hyps=hyps,
            ops=len(step_s),
            failed=bad_steps[0],
            counts={
                "per_pct": per,
                "float_per_pct": float_per,
                "compression_x": pruner.compression_rate(),
                "steps": len(step_s),
            },
        )

    def layer_metrics(self, traced, tracer, rows, proxy_shapes) -> Dict[str, float]:
        n = len(traced)
        hooks = rows.get("pruning.admm_hooks", {"total_s": 0.0})["total_s"]
        admm_epochs = sum(
            span[spans.END] - span[spans.START]
            for span in tracer.spans
            if span[spans.NAME] == "speech.trainer.epoch" and span[spans.SID] != "dense"
        )
        cell = self.model.gru.cells[1]
        batch = collate_shape(self.train)
        x = np.random.default_rng(0).standard_normal((batch[0], batch[1], self.hidden))
        h0 = np.zeros((batch[1], self.hidden))
        grad = np.ones((batch[0], batch[1], self.hidden))

        def fwd_bwd() -> None:
            _, _, backward = kernels.gru_sequence_grad(
                x, cell.weight_ih.data, cell.weight_hh.data,
                cell.bias_ih.data, cell.bias_hh.data, h0,
            )
            backward(grad)

        return {
            "pruning.admm_hooks_s": hooks / n,
            "pruning.admm_share": hooks / admm_epochs,
            "nn.optim.step_s": rows["nn.optim.step"]["total_s"] / n,
            "speech.trainer.fwd_bwd_s": rows["speech.trainer.epoch"]["self_s"] / n,
            "speech.trainer.steps": traced[0].counts["steps"],
            "speech.trainer.evaluate_s": rows["speech.trainer.evaluate"]["total_s"] / n,
            "speech.per_pct": traced[0].counts["per_pct"],
            "pruning.compression_x": traced[0].counts["compression_x"],
            "kernels.gru_sequence_grad_us": median_us(fwd_bwd, repeats=5),
        }


def collate_shape(dataset: Dataset):
    """``(T, B)`` of the largest training batch: longest utterance x 8."""
    return max(len(e.features) for e in dataset.examples), min(8, len(dataset.examples))


WORKLOADS = {
    cls.name: cls
    for cls in (StreamBspInt8, StreamDenseFloat, SingleUser1024, FabricStream, PruneRetrain)
}
