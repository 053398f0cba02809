"""Lower the shared layer graph into a packed execution plan.

The paper's thesis is that RNN inference gets fast when all indexing,
layout, and format decisions move to compile time.  :func:`compile_model`
applies that to this library's own execution — through the unified
compiler: the module tree is walked **once** into the shared layer-graph
IR (:func:`repro.compiler.pipeline.build_layer_graph`), the compiler's
pass pipeline (:mod:`repro.compiler.passes`) decides every per-layer
sparse format and kernel, and :func:`lower_graph` executes those
decisions, freezing everything the forward pass needs into flat arrays —
gate matrices pre-transposed, biases pre-folded the way the fused kernels
fold them, sparse weights pre-packed into :class:`~repro.sparse.csr.CSRMatrix`
/ :class:`~repro.sparse.bspc.BSPCMatrix` objects with their kernel plans
built eagerly, and (optionally) weights quantized to int8 codes.  No
format/scheme decision is made in this module; it executes
what the graph says.  The resulting :class:`ModelPlan` runs whole padded
batches on raw ndarrays: no ``Tensor`` tape, no per-layer ``Module``
dispatch, work buffers reused across calls; its ``graph`` attribute
retains the lowered IR for artifact serialization
(:mod:`repro.engine.artifact`).

Numerics by scheme (there are two):

* ``scheme=None`` (packing only) — float64 throughout, and **bit-exact**
  with the eval-mode ``model.forward`` fused-kernel path: the plan
  replays the same numpy ops in the same order.
* ``scheme="int8"`` — every product, projection or recurrence, is
  ``linear_int8_rowwise`` (dense) or ``bspc_spmm_int8``
  (sparse, whatever its pattern: int8 packs no CSR): integer
  accumulation, one activation scale *per frame* — per
  batch row of a hidden state — and one dequant, to float32
  (:func:`~repro.kernels.quantized.dequantize`).  Everything from the
  int32 sums to the next quantize is float32 — gate rows, biases, gates,
  the carried states, the logits too; the public entries (``run_chunk``,
  ``forward_batch``, ``forward_utterance``) widen those to float64 once,
  and a streaming session decodes the float32 logits.  Per-frame scales plus
  order-exact integer accumulation make int8 plans **bitwise
  chunk-exact**: a frame's logits do not depend on which other frames
  shared the call.  Wherever the compiled C library is available
  (:func:`repro.kernels.compiled.available`), every int8 plan is lowered
  once more, to ``ModelPlan.program``: one C call a chunk, in place of the
  generic per-layer loop (the same bytes).

Lowering reads the graph's scheme; each
:class:`~repro.compiler.ir.WeightSlot` records the same scheme, and a
slot that records another is a :class:`~repro.errors.CompilationError`.

Streaming: :meth:`ModelPlan.run_chunk` threads explicit hidden state
through the same layer code, so a session can feed a chunk at a time —
see :mod:`repro.engine.streaming` and ``docs/serving.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.compiler.ir import (
    GraphNode,
    GraphOptions,
    LayerGraph,
    WeightSlot,
    slot_scheme,
)
from repro.compiler.passes import int8_sparse_as_bspc, kernel_for, run_passes, slot_grid
from repro.compiler.pipeline import build_layer_graph, rnn_graph_from_weights
from repro.errors import ConfigError, ShapeError
from repro.kernels import compiled as _compiled
from repro.kernels import _math
from repro.kernels.quantized import int8_bspc_plan, int8_codes
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix

SCHEMES = (None, "int8")
SPARSE_FORMATS = (None, "auto", "csr", "bspc")


@dataclass(frozen=True)
class EngineConfig:
    """Compile-time knobs for :func:`compile_model`.

    ``sparse_format`` selects how input-side weight matrices are packed:
    ``None`` keeps every weight dense (required for the bit-exact
    packing-only guarantee), ``"csr"``/``"bspc"`` force a format, and
    ``"auto"`` packs any matrix whose density is at or below
    ``sparsity_threshold`` — as BSPC when the panels stay mostly full
    (``fill >= 0.5``, i.e. the pattern is BSP-shaped), as CSR otherwise.
    An int8 plan has one sparse format: its ``"csr"`` is BSPC.
    """

    sparse_format: Optional[str] = None
    sparsity_threshold: float = 0.5
    num_row_strips: int = 8
    num_col_blocks: int = 8

    def __post_init__(self) -> None:
        if self.sparse_format not in SPARSE_FORMATS:
            raise ConfigError(
                f"sparse_format must be one of {SPARSE_FORMATS}, "
                f"got {self.sparse_format!r}"
            )
        if not 0.0 < self.sparsity_threshold <= 1.0:
            raise ConfigError(
                f"sparsity_threshold must be in (0, 1], got {self.sparsity_threshold}"
            )
        if self.num_row_strips < 1 or self.num_col_blocks < 1:
            raise ConfigError("num_row_strips and num_col_blocks must be >= 1")

    def graph_options(self) -> GraphOptions:
        """The equivalent graph-level options for the shared pass
        pipeline (format decisions live there, not in this module)."""
        return GraphOptions(
            sparse_format=self.sparse_format,
            sparsity_threshold=self.sparsity_threshold,
            num_row_strips=self.num_row_strips,
            num_col_blocks=self.num_col_blocks,
        )


class _Workspace:
    """Grow-only scratch buffers, keyed by name and dtype.

    ``take`` hands out a reshaped view of a flat buffer that is enlarged
    only when a bigger batch arrives — repeated ``forward_batch`` calls
    at steady shapes allocate nothing.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}

    def take(self, key: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = int(math.prod(shape))
        dtype = np.dtype(dtype)
        buffer = self._buffers.get((key, dtype))
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[(key, dtype)] = buffer
        return buffer[:size].reshape(shape)


# ---------------------------------------------------------------------------
# Weight packing
# ---------------------------------------------------------------------------
_VALUE_BYTES = {None: 8, "int8": 1}


class _PackedWeight:
    """One weight slot packed for execution, its kernel bound at lowering.

    ``apply(x2d, ws, key)`` maps ``(N, K)`` activations to the ``(N, M)``
    product with the weight's transpose.  What runs was decided by the
    pass pipeline (format, scheme) and is fixed here, once, rather than
    re-derived per call:

    * dense float weights are one BLAS ``matmul`` into a workspace buffer
      of ``out_dtype``.  A float projection multiplies by the ``weight.T``
      view and a float recurrence by a contiguous transpose, exactly the
      operands the fused kernels use (bit-exact);
    * dense int8 weights, projections and recurrences alike, run
      ``linear_int8_rowwise`` (one scale per row: per frame, or per batch
      row of a state);
    * CSR/BSPC weights run ``*_spmm`` / ``bspc_spmm_int8``
      on the transpose *view* of the row-major activations, and hand back
      the transpose view of the kernel's result (see the activation
      layout contract in ``docs/kernels.md``).

    Every int8 kernel returns float32, as an int8 slot's ``out_dtype``
    is.  ``state_dtype`` marks a recurrent slot and names the dtype of the
    state it multiplies.  The kernel is :data:`repro.kernels.OPS`'s entry
    for the slot's op, looked up once here as ``kernel``, the attribute
    ``apply`` calls.  That is the generic loop's way; the program reads a
    dense int8 slot as :meth:`dense_panel`.
    """

    def __init__(
        self, slot: WeightSlot, scheme: Optional[str], state_dtype=None
    ) -> None:
        weight = slot.array
        self.scheme = scheme
        self.shape = weight.shape
        self.matrix = self.panel = None
        #: The op the kernel-selection pass names for this slot.
        self.op = kernel_for(slot.op, slot.format or "dense", scheme)
        self.out_dtype = np.dtype(
            state_dtype or (np.float64 if scheme is None else np.float32)
        )
        if slot.format not in (None, "dense"):
            self.matrix = _pack_sparse(slot, weight, scheme)
        elif scheme == "int8":
            self.codes, self.scale = int8_codes(weight)
            self.codes_f = self.codes.astype(np.float32)  # what the numpy kernel takes
        else:
            self.weight_t = (
                weight.copy().T
                if state_dtype is None
                else np.ascontiguousarray(weight.T)
            )
        if self.op == "blas_matmul":
            self.kernel, self.apply = np.matmul, self._matmul
            return
        self.kernel = kernels.OPS[self.op]
        self.apply = self._dense_int8 if self.matrix is None else self._sparse

    def dense_panel(self):
        """This dense int8 slot as the program reads it, packed once."""
        if self.panel is None:
            self.panel = _compiled.dense_int8_panel(self.codes, self.scale)
        return self.panel

    def _matmul(self, x2d: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        out = ws.take(key, (x2d.shape[0], self.shape[0]), self.out_dtype)
        return np.matmul(x2d, self.weight_t, out=out)

    def _dense_int8(self, x2d: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        return self.kernel(self.codes_f, self.scale, x2d)

    def _sparse(self, x2d: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        # The kernel gets the matrix, not a frozen plan: its cached plan
        # follows the matrix's invalidation rules.
        return self.kernel(self.matrix, x2d.T).T

    def nbytes(self) -> int:
        value_bytes = _VALUE_BYTES[self.scheme]
        if self.matrix is not None:
            return self.matrix.nbytes(value_bytes=value_bytes, index_bytes=4)
        return int(np.prod(self.shape)) * value_bytes


def _pack_sparse(slot: WeightSlot, weight: np.ndarray, scheme: Optional[str]):
    """Pack a slot as its pass-decided CSR/BSPC format, with the kernel
    plan its scheme executes built eagerly (an int8 slot is BSPC by then:
    :func:`~repro.compiler.passes.int8_sparse_as_bspc`).

    All format *decisions* happen in the compiler's format-selection pass
    (:func:`repro.compiler.passes.select_formats_pass`); this function
    only executes them.
    """
    if slot.format == "bspc":
        matrix = (
            slot.prebuilt
            if slot.prebuilt is not None
            else BSPCMatrix.from_dense(weight, slot_grid(slot))
        )
        plan_builder = int8_bspc_plan if scheme == "int8" else kernels.bspc_plan
    else:
        matrix = CSRMatrix.from_dense(weight)
        plan_builder = kernels.csr_plan
    plan_builder(matrix)  # build the cached execution plan now
    return matrix


def _round_bias(bias: np.ndarray, scheme: Optional[str], dtype) -> np.ndarray:
    """Biases follow the scheme's value grid (matching ``quantize_model``)."""
    if scheme == "int8":
        codes, scale = int8_codes(bias)
        return (codes.astype(np.float64) * scale).astype(dtype)
    return bias.copy()


# ---------------------------------------------------------------------------
# Layer plans
# ---------------------------------------------------------------------------
class GRULayerPlan:
    """One GRU layer frozen for batched inference.

    ``forward`` replays the numpy ``gru_sequence`` kernel's math — the
    same ops in the same order, run into preallocated workspace buffers —
    so for the packing-only scheme it is bit-exact, with the recurrent
    ``w_hh.T`` contiguation hoisted from per-call to compile time.

    ``dtype`` is what the layer computes and carries in, gates included:
    float32 in an int8 plan (its products dequantize to float32), else
    float64.  Float32 gates take
    their sigmoid and tanh from :func:`~repro.kernels._math.exp32`, the
    rule the compiled program's gate sweep runs too.
    """

    def __init__(self, node: GraphNode, scheme: Optional[str]) -> None:
        ih_slot, hh_slot = node.weights["ih"], node.weights["hh"]
        self.scheme = scheme
        recorded = slot_scheme(scheme)
        self.slot_config = (
            (recorded, ih_slot.format or "dense"),
            (recorded, hh_slot.format or "dense"),
        )
        self.hidden_size = hh_slot.shape[1]
        self.input_size = ih_slot.shape[1]
        self.fold_bias = scheme == "int8"
        self.dtype = np.dtype(np.float32 if self.fold_bias else np.float64)
        self.input_proj = _PackedWeight(ih_slot, scheme)
        self.recurrent = _PackedWeight(hh_slot, scheme, state_dtype=self.dtype)
        bias_ih = node.params["bias_ih"]
        bias_hh = node.params["bias_hh"]
        h = self.hidden_size
        if not self.fold_bias:
            self.bias_ih = bias_ih.copy()
            self.bias_hh_zr = bias_hh[: 2 * h].copy()
            self.bias_hh_h = bias_hh[2 * h :].copy()
            self.biases = (self.bias_ih, self.bias_hh_zr, self.bias_hh_h)
        else:
            # Folded once at compile time; the kernel folds per call.
            folded = _round_bias(bias_ih, scheme, np.float64)
            rounded_hh = _round_bias(bias_hh, scheme, np.float64)
            folded[: 2 * h] += rounded_hh[: 2 * h]
            self.bias_folded = folded.astype(self.dtype)
            self.bias_hh_h = rounded_hh[2 * h :].astype(self.dtype)
            self.biases = (self.bias_folded, self.bias_hh_h)

    def nbytes(self) -> int:
        bias_bytes = sum(bias.nbytes for bias in self.biases)
        return self.input_proj.nbytes() + self.recurrent.nbytes() + bias_bytes

    def zero_state(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.hidden_size), dtype=self.dtype)

    def forward(
        self,
        x: np.ndarray,
        ws: _Workspace,
        index: int,
        state: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        seq_len, batch, _ = x.shape
        h = self.hidden_size
        flat = x.reshape(seq_len * batch, self.input_size)
        gates_x = self.input_proj.apply(flat, ws, f"gx{index}")
        if not self.fold_bias:
            gates_x = gates_x + self.bias_ih
        else:
            gates_x = gates_x + self.bias_folded
        gates_x = gates_x.reshape(seq_len, batch, 3 * h)
        if not self.fold_bias:
            gates_x[:, :, : 2 * h] += self.bias_hh_zr
        gx_zr = gates_x[:, :, : 2 * h]
        gx_h = gates_x[:, :, 2 * h :]
        dtype = self.dtype
        out = ws.take(f"out{index}", (seq_len, batch, h), dtype)
        zr = ws.take("zr", (batch, 2 * h), dtype)
        z = zr[:, :h]
        r = zr[:, h:]
        h_tilde = ws.take("h_tilde", (batch, h), dtype)
        keep = ws.take("keep", (batch, h), dtype)
        hidden = self.zero_state(batch) if state is None else state
        apply, gh_key = self.recurrent.apply, f"gh{index}"
        sigmoid_, tanh_ = _math.sigmoid_, _math.tanh_
        if dtype == np.float32:
            sigmoid_, tanh_ = _math.sigmoid32_, _math.tanh32_
        for t in range(seq_len):
            gh = apply(hidden, ws, gh_key)
            sigmoid_(np.add(gx_zr[t], gh[:, : 2 * h], out=zr))
            np.add(gh[:, 2 * h :], self.bias_hh_h, out=h_tilde)
            np.multiply(r, h_tilde, out=h_tilde)
            tanh_(np.add(gx_h[t], h_tilde, out=h_tilde))
            np.multiply(np.subtract(1.0, z, out=keep), hidden, out=keep)
            hidden = np.add(keep, np.multiply(z, h_tilde, out=h_tilde), out=out[t])
        # never alias the caller's carry state or a work buffer
        return out, hidden.copy()


class OutputPlan:
    """The final linear projection over phone classes."""

    def __init__(
        self, slot: WeightSlot, bias: Optional[np.ndarray], scheme: Optional[str]
    ) -> None:
        self.scheme = scheme
        self.num_classes = slot.shape[0]
        self.weight = _PackedWeight(slot, scheme)
        self.bias = (
            None if bias is None else _round_bias(bias, scheme, self.weight.out_dtype)
        )

    def project(self, hidden: np.ndarray, ws: _Workspace) -> np.ndarray:
        """Hidden states ``(T, B, H)`` → logits ``(T, B, C)`` (fresh array,
        in the weight's ``out_dtype``: float32 for a quantized scheme)."""
        seq_len, batch, h = hidden.shape
        logits = self.weight.apply(hidden.reshape(seq_len * batch, h), ws, "logits")
        # the sum (or the copy) is what keeps the work buffer private
        logits = logits.copy() if self.bias is None else logits + self.bias
        return logits.reshape(seq_len, batch, self.num_classes)

    def nbytes(self) -> int:
        bias_bytes = 0 if self.bias is None else self.bias.nbytes
        return self.weight.nbytes() + bias_bytes


# ---------------------------------------------------------------------------
# Carry state for streaming execution
# ---------------------------------------------------------------------------
class PlanState:
    """The recurrent carry of a :class:`ModelPlan` between chunks.

    One ``(B, H)`` hidden-state array per layer.  States are value
    objects: the plan never mutates a state it was handed, and the state
    it returns never aliases its internal work buffers, so a state can be
    held across arbitrary other plan calls.
    """

    def __init__(self, layer_states: List[np.ndarray]) -> None:
        self.layer_states = layer_states

    @property
    def batch_size(self) -> int:
        return int(self.layer_states[0].shape[0])


# ---------------------------------------------------------------------------
# The compiled model
# ---------------------------------------------------------------------------
class ModelPlan:
    """A model compiled to flat arrays; run with :meth:`forward_batch`.

    Internal work buffers are reused across calls, so a plan is cheap to
    invoke repeatedly at steady batch shapes; the returned logits are
    always freshly allocated.  Plans snapshot the weights at compile
    time — recompile after further training or pruning.
    """

    def __init__(
        self,
        layers: List[GRULayerPlan],
        output: Optional[OutputPlan],
        scheme: Optional[str],
        config: EngineConfig,
        graph: Optional[LayerGraph] = None,
    ) -> None:
        self.layers = layers
        self.output = output
        self.scheme = scheme
        self.config = config
        self.graph = graph
        self.input_dim = layers[0].input_size
        self.hidden_size = layers[0].hidden_size
        self._workspace = _Workspace()
        self._weights = [
            weight for layer in layers for weight in (layer.input_proj, layer.recurrent)
        ]
        if output is not None:
            self._weights.append(output.weight)
        self.program = self._lower_program()

    def _lower_program(self) -> Optional[_compiled.PlanProgram]:
        """The whole plan as one compiled call per chunk (``docs/engine.md``):
        every int8 plan, where the C library is available (the first
        lowering builds or loads it) — each weight a BSPC matrix or a dense
        one-strip panel.  ``None`` for a float plan or without a compiler,
        and the generic loop runs it."""
        if self.scheme != "int8" or not _compiled.available():
            return None
        slots = []
        for layer in self.layers:
            slots.append((_compiled.PLAN_PROJECT, layer.input_proj, layer.bias_folded))
            slots.append((_compiled.PLAN_GRU, layer.recurrent, layer.bias_hh_h))
        if self.output is not None:
            slots.append((_compiled.PLAN_OUTPUT, self.output.weight, self.output.bias))
        try:
            return _compiled.PlanProgram(
                [
                    (kind, w.dense_panel() if w.matrix is None else w.matrix, bias)
                    for kind, w, bias in slots
                ]
            )
        except ShapeError:  # a weight re-packed to another shape: the layers say so
            return None

    def _program(self) -> Optional[_compiled.PlanProgram]:
        """The program a non-empty chunk runs now, or ``None`` (the generic
        loop): lowered again if a weight's int8 plan was invalidated."""
        if self.program is not None and self.program.stale():
            self.program = self._lower_program()
        return self.program

    def _run(
        self, features: np.ndarray, layer_states: Optional[List[np.ndarray]]
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Logits and carries of one checked ``(T, B, D)`` float64 chunk,
        from per-layer carries already in the layers' dtypes (``None``:
        zeros): one call into the program where the plan lowered to one
        (row ``b`` at ``b·D``, steps ``B·D`` apart; fresh carries out), else
        layer by layer.  The logits are in the dtype the layers made them
        (float32 in an int8 plan) and never alias a work buffer.

        What the public entries run, once they checked a chunk; only they
        widen the logits to float64.  Sessions and the scheduler run
        :meth:`_serve`."""
        seq_len, batch, _ = features.shape
        program = self._program()
        if program is None or not (seq_len and batch):
            return self._loop(features, layer_states)
        return program.run(features, layer_states)

    def _serve(
        self, chunks: List[np.ndarray], slabs: List[np.ndarray], rows: List[int]
    ) -> np.ndarray:
        """Frame labels ``(T, B)`` of ``B`` checked, equally long ``(T, D)``
        float64 chunks, one per batch row, whose carries are rows ``rows``
        (distinct) of per-layer ``(capacity, H)`` slabs in the layers'
        dtypes; the carries out are written back to those rows in place.  A
        label is its frame's argmax, the first maximum on a tie.

        The engine's one serving entry (:class:`StreamingSession`,
        :class:`StreamScheduler` and so the fabric's workers): on a program,
        one C call that reads each chunk and slab row where it sits and
        writes each frame's label next to its logits; on the generic loop,
        the chunks stacked to ``(T, B, D)``, the carries gathered, run and
        written back, and the logits' argmax."""
        program = self._program()
        if program is not None:
            return program.serve(chunks, self.input_dim, rows, slabs)
        batch = np.concatenate(chunks, axis=1)
        batch = batch.reshape(len(batch), len(chunks), self.input_dim)
        logits, fresh = self._loop(batch, [slab.take(rows, axis=0) for slab in slabs])
        for slab, carry in zip(slabs, fresh):
            slab[rows] = carry
        return logits.argmax(axis=2)

    def _loop(
        self, features: np.ndarray, layer_states: Optional[List[np.ndarray]]
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """:meth:`_run` layer by layer: the generic loop."""
        x = features
        new_states: List[np.ndarray] = []
        for index, layer in enumerate(self.layers):
            carry = None if layer_states is None else layer_states[index]
            x, carry = layer.forward(x, self._workspace, index, carry)
            new_states.append(carry)
        if self.output is not None:
            x = self.output.project(x, self._workspace)
        else:
            x = x.copy()  # never hand out an internal work buffer
        return x, new_states

    def _checked(self, features: np.ndarray, entry: str) -> np.ndarray:
        return check_features(features, "T, B", self.input_dim, entry)

    def forward_batch(self, features: np.ndarray) -> np.ndarray:
        """Features ``(T, B, D)`` → logits ``(T, B, C)``, from zero state.

        Every row runs all ``T`` frames; a caller with ragged utterances
        slices each one's frames out (as
        :func:`repro.speech.decoder.decode_batch` does).
        """
        logits, _ = self._run(self._checked(features, "forward_batch"), None)
        return _widened(logits)

    def init_state(self, batch: int) -> PlanState:
        """The all-zero carry state for ``batch`` concurrent streams."""
        if batch < 0:
            raise ShapeError(f"batch must be >= 0, got {batch}")
        return PlanState([layer.zero_state(batch) for layer in self.layers])

    def signature(self) -> Tuple:
        """The compatibility fingerprint that governs hot-swap safety.

        Two plans with equal signatures accept each other's
        :class:`PlanState` *numerically*: per-layer shapes match, **and**
        every weight slot was lowered under the same (scheme, format)
        decision.  A shape-only fingerprint is not enough — an int8
        candidate would accept a float incumbent's state whose trajectory
        was produced on a different quantization grid, silently degrading
        every carried session.  The
        hot-swap paths (:meth:`StreamScheduler.swap_plan
        <repro.engine.streaming.StreamScheduler.swap_plan>`,
        ``fabric.swap``/``start_canary``) reject signature mismatches
        with a typed ``SwapError``.
        """
        layers = tuple(
            (layer.input_size, layer.hidden_size, layer.slot_config)
            for layer in self.layers
        )
        classes = (
            None
            if self.output is None
            else (self.output.num_classes, self.output.scheme or "float")
        )
        return (layers, classes)

    def adapt_state(self, state: PlanState) -> PlanState:
        """Re-home a carry state produced by a same-architecture plan.

        Returns a fresh :class:`PlanState` whose arrays are cast to
        *this* plan's per-layer compute dtypes (a scheme change moves
        states between float64 and float32: widening is exact, narrowing
        rounds to nearest, numpy's ``astype``); raises :class:`ShapeError`
        when the state's layer count or hidden sizes do not match this
        plan's architecture.  :meth:`run_chunk` casts a carry by the same
        rule.
        """
        self._check_state(state)
        return PlanState([hidden.copy() for hidden in self._carries(state)])

    def _carries(self, state: PlanState) -> List[np.ndarray]:
        """``state``'s layer arrays in this plan's layer dtypes (copies only
        where a cast is needed)."""
        return [
            np.asarray(hidden, dtype=layer.dtype)
            for layer, hidden in zip(self.layers, state.layer_states)
        ]

    def _check_state(self, state: PlanState, batch: Optional[int] = None) -> None:
        """A :class:`ShapeError` unless ``state`` holds one ``(B, H)`` array
        per layer, with ``B == batch`` where ``batch`` is given."""
        if len(state.layer_states) != len(self.layers):
            raise ShapeError(
                f"state has {len(state.layer_states)} layer states, "
                f"plan has {len(self.layers)} layers"
            )
        for index, (layer, hidden) in enumerate(zip(self.layers, state.layer_states)):
            shape = np.shape(hidden)
            rows = shape[:1] if batch is None else (batch,)
            if shape != rows + (layer.hidden_size,):
                raise ShapeError(
                    f"layer {index} state has shape {shape}, expected "
                    f"({'B' if batch is None else batch}, {layer.hidden_size})"
                )

    def run_chunk(
        self, features: np.ndarray, state: Optional[PlanState] = None
    ) -> Tuple[np.ndarray, PlanState]:
        """One streaming chunk: ``(T, B, D)`` + carry → ``(logits, carry')``.

        Feeding an utterance through ``run_chunk`` in *any* chunk split
        replays the per-timestep recurrence of :meth:`forward_batch`
        exactly; the only ops whose shape depends on the split are the
        hoisted input/output projections, whose BLAS reduction order may
        differ — so float logits agree to reduction-order rounding
        (~1e-12 relative for float64) and int8 logits are **bit-exact**
        (per-frame activation scales, order-exact integer accumulation).
        Decoded phone sequences are identical in either case; see
        ``docs/serving.md``.

        ``state=None`` starts a fresh stream (all-zero state, identical
        to :meth:`forward_batch` on the same frames).  A carry in another
        dtype — a float64 state handed to an int8 plan — is cast to each
        layer's dtype by :meth:`adapt_state`'s rule first, so it runs as
        ``adapt_state(state)`` would.  The returned carry never aliases plan
        work buffers, and zero-length chunks are legal (logits ``(0, B,
        C)``, state passed through, in the layers' dtypes).
        """
        features = self._checked(features, "run_chunk")
        batch = features.shape[1]
        if state is None:
            state = self.init_state(batch)
        self._check_state(state, batch)
        logits, new_states = self._run(features, self._carries(state))
        return _widened(logits), PlanState(new_states)

    def forward_utterance(self, features: np.ndarray) -> np.ndarray:
        """Single utterance ``(T, D)`` → logits ``(T, C)``."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ShapeError(
                f"forward_utterance expects (T, D) features, got {features.shape}"
            )
        return self.forward_batch(features[:, None, :])[:, 0]

    def nbytes(self) -> int:
        """Modelled storage footprint of the packed weights."""
        total = sum(layer.nbytes() for layer in self.layers)
        if self.output is not None:
            total += self.output.nbytes()
        return total


def _widened(logits: np.ndarray) -> np.ndarray:
    """What the public entries return: float64 logits (float32 widened
    once: exact, and it moves no argmax)."""
    return logits if logits.dtype == np.float64 else logits.astype(np.float64)


def check_features(features, axes: str, width: int, entry: str) -> np.ndarray:
    """``features`` as float64: the axes ``axes`` names, the last ``width``
    wide, every value finite.  Anything else is a :class:`ShapeError`
    naming ``entry`` — a NaN or Inf frame would quantize differently on
    each route (the program, the generic loop, the oracle), so none gets
    one."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != axes.count(",") + 2 or features.shape[-1] != width:
        raise ShapeError(
            f"{entry} expects ({axes}, {width}) features, got {features.shape}"
        )
    if not np.isfinite(features).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(features))[0])
        raise ShapeError(f"{entry} got a non-finite feature at {where}")
    return features


def _validate_scheme(scheme: Optional[str]) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def _config_from_graph(graph: LayerGraph) -> EngineConfig:
    options = graph.options
    fmt = options.sparse_format
    return EngineConfig(
        sparse_format=None if fmt == "dense" else fmt,
        sparsity_threshold=options.sparsity_threshold,
        num_row_strips=options.num_row_strips,
        num_col_blocks=options.num_col_blocks,
    )


def lower_graph(
    graph: LayerGraph, config: Optional[EngineConfig] = None
) -> ModelPlan:
    """Lower a layer graph to an executable :class:`ModelPlan`.

    This is the execution engine's backend of the unified compiler: the
    graph's pass-decided per-slot formats and scheme are executed
    verbatim.  Slots whose format is still undecided are sent
    through the pipeline's decision passes first, so a freshly built
    frontend graph and a tuned/deserialized one lower through the same
    code.

    Lowering is deterministic: the same graph (same arrays, same
    annotations) always produces a plan with bit-identical outputs —
    the property the compiled-artifact round trip relies on.
    """
    _validate_scheme(graph.scheme)
    if graph.undecided():
        run_passes(graph)
    int8_sparse_as_bspc(graph)  # a decided graph too: an older artifact's
    graph.check_slot_schemes()
    layers: List[GRULayerPlan] = []
    output = None
    for node in graph.nodes:
        if node.kind == "gru_cell":
            layers.append(GRULayerPlan(node, graph.scheme))
        elif node.kind == "output":
            output = OutputPlan(
                node.weights["w"], node.params.get("bias"), graph.scheme
            )
        else:
            raise ConfigError(
                f"cannot lower node kind {node.kind!r} to the engine"
            )
    if not layers:
        raise ConfigError("graph has no recurrent layers to lower")
    return ModelPlan(
        layers,
        output,
        graph.scheme,
        config or _config_from_graph(graph),
        graph=graph,
    )


def compile_model(
    model,
    scheme: Optional[str] = None,
    config: EngineConfig = EngineConfig(),
) -> ModelPlan:
    """Compile a :class:`~repro.speech.model.GRUAcousticModel` (or a bare
    ``GRU`` stack) into a :class:`ModelPlan`.

    The module tree is walked exactly once into the shared layer-graph IR
    (:func:`repro.compiler.pipeline.build_layer_graph`), the compiler's
    decision passes pick every format/kernel, and :func:`lower_graph`
    executes those decisions.  The graph holds copies of the weights, so
    later training does not silently change compiled results.
    """
    _validate_scheme(scheme)
    graph = build_layer_graph(model, scheme=scheme, options=config.graph_options())
    run_passes(graph)
    return lower_graph(graph, config)


def compile_rnn(
    weights: Dict[str, np.ndarray],
    scheme: Optional[str] = None,
    config: EngineConfig = EngineConfig(),
) -> ModelPlan:
    """Compile a bare GRU weight dict (``gru.cell{i}.weight_ih/_hh`` keys,
    the :meth:`~repro.speech.model.GRUAcousticModel.prunable_weights` /
    Table II sweep naming) into an RNN-only plan with zero biases.

    Used by the ``--engine`` latency paths, which care about the
    recurrent compute of a sparsity pattern, not trained biases or the
    output projection.
    """
    _validate_scheme(scheme)
    graph = rnn_graph_from_weights(
        weights, scheme=scheme, options=config.graph_options()
    )
    run_passes(graph)
    return lower_graph(graph, config)
