"""Compiled model plans and batched streaming inference.

The executable backend of the unified compiler: :func:`compile_model`
walks a trained module tree once into the shared layer-graph IR
(:mod:`repro.compiler.ir`), runs the compiler's pass pipeline, and
:func:`lower_graph` freezes the decided graph into a :class:`ModelPlan`
(packed — optionally sparse and/or quantized — weights plus preallocated
work buffers); :class:`StreamScheduler` serves any number of concurrent
sessions through that plan, a whole utterance being one chunk.  Tuned
plans serialize with :func:`save_plan` and reload bit-identically with
:func:`load_plan`.

Quickstart::

    from repro import engine

    plan = engine.compile_model(model, scheme="int8")
    logits = plan.forward_batch(features)               # (T, B, C)

    # online, chunk at a time, state carried between chunks:
    session = engine.StreamingSession(plan, min_duration=2)
    phones = [p for chunk in chunks for p in session.feed(chunk)]
    phones += session.finish()

    # deployment artifact: save → load → bit-identical logits
    engine.save_plan("model.plan.npz", plan)
    plan = engine.load_plan("model.plan.npz")

    # supervised multi-process serving with crash recovery
    with engine.ServingFabric("model.plan.npz") as fabric:
        sid = fabric.open()
        fabric.feed(sid, chunk)
        phones = fabric.poll(sid) + fabric.finish(sid)

    # versioned deployments: publish → serve → canary → promote/rollback
    registry = engine.PlanRegistry("registry/")
    registry.publish("am", plan)
    with engine.ServingFabric.from_registry(registry, "am") as fabric:
        fabric.start_canary("v2", engine.CanaryConfig(fraction=0.25))

See ``docs/engine.md``, ``docs/serving.md``, ``docs/compiler.md``, and
``docs/registry.md`` for the design.
"""

from repro.engine.artifact import load_plan, save_plan
from repro.engine.fabric import (
    CanaryConfig,
    CanaryReport,
    FabricConfig,
    FaultConfig,
    FleetStats,
    ServingFabric,
    SessionJournal,
    WorkerStats,
)
from repro.engine.registry import PlanRegistry, RegistryEntry
from repro.engine.plan import (
    EngineConfig,
    GRULayerPlan,
    ModelPlan,
    OutputPlan,
    PlanState,
    compile_model,
    compile_rnn,
    lower_graph,
)
from repro.engine.streaming import (
    StreamConfig,
    StreamScheduler,
    StreamStats,
    StreamingSession,
)

__all__ = [
    "EngineConfig",
    "ModelPlan",
    "PlanState",
    "GRULayerPlan",
    "OutputPlan",
    "compile_model",
    "compile_rnn",
    "lower_graph",
    "save_plan",
    "load_plan",
    "PlanRegistry",
    "RegistryEntry",
    "StreamConfig",
    "StreamScheduler",
    "StreamStats",
    "StreamingSession",
    "ServingFabric",
    "FabricConfig",
    "FleetStats",
    "WorkerStats",
    "CanaryConfig",
    "CanaryReport",
    "FaultConfig",
    "SessionJournal",
]
