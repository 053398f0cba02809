"""RTMobile reproduction — block-based structured pruning and
compiler-assisted mobile RNN acceleration (Dong et al., DAC 2020).

Layered public API:

* :mod:`repro.nn` — numpy autograd + GRU training substrate,
* :mod:`repro.pruning` — BSP (ADMM block pruning) and every baseline,
* :mod:`repro.sparse` — CSR/BSPC storage formats,
* :mod:`repro.kernels` — vectorized kernels, their straight-line oracle
  and the compiled C (the compute seam for sparse ops and fused RNN
  sequences),
* :mod:`repro.compiler` — the unified compiler: one layer-graph IR and
  pass pipeline (reorder / load elimination / format + kernel selection)
  with simulated *and* measured auto-tuning,
* :mod:`repro.engine` — the compiler's executable backend: compiled
  model plans (packed, optionally quantized weights), one streaming
  serving path (whole utterances are single chunks), and save/load of
  tuned plan artifacts,
* :mod:`repro.hw` — calibrated Adreno 640 / Kryo 485 simulator + energy,
* :mod:`repro.speech` — synthetic TIMIT-like corpus, GRU acoustic model,
  PER evaluation,
* :mod:`repro.training` — atomic checksummed checkpoints with bit-exact
  resume,
* :mod:`repro.sweep` — fault-tolerant prune→retrain sweeps over the
  sparsity × scheme × block grid, published into the plan registry,
* :mod:`repro.eval` — harnesses for Table I, Table II, and Figure 4.

Quickstart::

    from repro.speech import make_corpus, GRUAcousticModel, Trainer
    from repro.pruning import BSPConfig, BSPPruner
    from repro.compiler import compile_for_simulation
    from repro.hw import ADRENO_640
    from repro import engine

    train, test = make_corpus(48, 16)
    model = GRUAcousticModel()
    trainer = Trainer(model, train, test)
    trainer.train_dense(10)
    pruner = BSPPruner(model.prunable_parameters(), BSPConfig(10, 1.25))
    trainer.run_pruning(pruner)
    compiled = compile_for_simulation(model.prunable_weights())
    print(compiled.simulate(ADRENO_640).latency_us)   # analytic mobile cost
    plan = engine.compile_model(model)                # executable host plan
    print(plan.forward_batch(test.examples[0].features[:, None, :]).shape)
"""

__version__ = "1.0.0"

from repro import (
    compiler,
    engine,
    eval,
    hw,
    kernels,
    nn,
    pruning,
    sparse,
    speech,
    sweep,
    training,
    utils,
)
from repro.errors import (
    ArtifactError,
    CheckpointError,
    CompilationError,
    CompileBackendError,
    ConfigError,
    FabricError,
    GradientError,
    KernelError,
    OverloadError,
    ReproError,
    ShapeError,
    SimulationError,
    SparsityError,
    StreamError,
    SweepError,
)

__all__ = [
    "__version__",
    "nn",
    "sparse",
    "pruning",
    "compiler",
    "engine",
    "hw",
    "kernels",
    "speech",
    "training",
    "sweep",
    "eval",
    "utils",
    "ReproError",
    "ShapeError",
    "ConfigError",
    "GradientError",
    "SparsityError",
    "CompilationError",
    "CompileBackendError",
    "KernelError",
    "SimulationError",
    "StreamError",
    "OverloadError",
    "ArtifactError",
    "FabricError",
    "CheckpointError",
    "SweepError",
]
