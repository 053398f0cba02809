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
built eagerly, and (optionally) weights quantized to fp16 storage or int8
codes.  No format/scheme decision is made in this module; it executes
what the graph says.  The resulting :class:`ModelPlan` runs whole padded
batches on raw ndarrays: no ``Tensor`` tape, no per-layer ``Module``
dispatch, work buffers reused across calls; its ``graph`` attribute
retains the lowered IR for artifact serialization
(:mod:`repro.engine.artifact`) and a tuned ``backend`` pins the kernel
registry backend its kernels dispatch to.

Numerics by scheme:

* ``scheme=None`` (packing only) — float64 throughout, and **bit-exact**
  with the eval-mode ``model.forward`` fused-kernel path: the plan
  replays the same numpy ops in the same order.
* ``scheme="fp16"`` — weights and biases are rounded through IEEE half
  precision; compute runs in float32 (half the memory traffic of the
  float64 path: "16-bit storage, wider accumulate").
* ``scheme="int8"`` — projections and sparse recurrences run through the
  registry's ``linear_int8_rowwise`` / ``*_spmm_int8`` kernels (integer
  accumulation, one activation scale *per frame*, one dequant); a dense
  per-timestep recurrent GEMM uses dequantized int8 weights in float64,
  too small to pay for a per-step quantization.  Per-frame scales plus
  order-exact integer accumulation make int8 plans **bitwise
  chunk-exact**: a frame's logits do not depend on which other frames
  shared the call.  An int8 GRU plan whose sparse slots bound the compiled
  BSPC kernel is lowered once more, to ``ModelPlan.program``: one C call a
  chunk, in place of the generic per-layer loop.
* ``scheme="mixed"`` — the scheme is decided *per slot* by the pass
  pipeline: int8 input/output projections (batched, chunk-exact) with
  full-precision float recurrences (where per-step quantization error
  would compound).  Every slot executes exactly as it would under its
  own uniform scheme, so mixed plans inherit the int8 slots' bitwise
  chunk-exactness while keeping float recurrent dynamics.

Schemes are carried per :class:`~repro.compiler.ir.WeightSlot`; the
graph-level scheme is only the *request* the pass pipeline resolves, and
lowering reads the slot decisions (falling back to the graph scheme for
artifacts that predate per-slot schemes).

Streaming: :meth:`ModelPlan.run_chunk` threads explicit hidden (and
cell) state through the same layer code, so a session can feed a chunk
at a time — see :mod:`repro.engine.streaming` and ``docs/serving.md``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.compiler.ir import (
    GraphNode,
    GraphOptions,
    LayerGraph,
    WeightSlot,
    resolve_slot_scheme,
)
from repro.compiler.passes import kernel_for, run_passes, slot_grid
from repro.compiler.pipeline import build_layer_graph, rnn_graph_from_weights
from repro.errors import ConfigError, ShapeError
from repro.kernels import compiled as _compiled
from repro.kernels._math import sigmoid_ as _sigmoid_
from repro.kernels.quantized import int8_bspc_plan, int8_codes, int8_csr_plan
from repro.nn.quantize import quantize_fp16
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix

SCHEMES = (None, "fp16", "int8", "mixed")
SPARSE_FORMATS = (None, "auto", "csr", "bspc")


def _slot_scheme(slot: WeightSlot, graph_scheme: Optional[str]) -> Optional[str]:
    """A slot's *compute* scheme: ``None`` (float64), ``"fp16"``, ``"int8"``.

    Reads the pass-decided per-slot scheme; slots from artifacts that
    predate per-slot schemes carry ``None`` and fall back to the graph
    scheme (resolved exactly as the pass pipeline would).
    """
    resolved = slot.scheme or resolve_slot_scheme(graph_scheme, slot.op)
    return None if resolved == "float" else resolved


@dataclass(frozen=True)
class EngineConfig:
    """Compile-time knobs for :func:`compile_model`.

    ``sparse_format`` selects how input-side weight matrices are packed:
    ``None`` keeps every weight dense (required for the bit-exact
    packing-only guarantee), ``"csr"``/``"bspc"`` force a format, and
    ``"auto"`` packs any matrix whose density is at or below
    ``sparsity_threshold`` — as BSPC when the panels stay mostly full
    (``fill >= 0.5``, i.e. the pattern is BSP-shaped), as CSR otherwise.
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
_VALUE_BYTES = {None: 8, "fp16": 2, "int8": 1}


class _PackedWeight:
    """One weight slot packed for execution, its kernel bound at lowering.

    ``apply(x2d, ws, key)`` maps ``(N, K)`` activations to the ``(N, M)``
    product with the weight's transpose.  What runs was decided by the
    pass pipeline (format, scheme) and is fixed here, once, rather than
    re-derived per call:

    * dense float / fp16 weights, and int8 *recurrent* weights
      (dequantized once — the per-step ``(B, H)`` GEMMs are too small for
      an integer pipeline to beat float BLAS), are one BLAS ``matmul``
      into a workspace buffer.  A float projection multiplies by the
      ``weight.T`` view and a float recurrence by a contiguous transpose,
      exactly the operands the fused kernels use (bit-exact);
    * dense int8 projections run the registry's ``linear_int8_rowwise``
      — where that is the compiled kernel, on a one-strip panel packed
      here once (``panel``) and straight into a workspace buffer;
    * CSR/BSPC weights run the registry's ``*_spmm`` / ``*_spmm_int8``
      on the transpose *view* of the row-major activations, and hand back
      the transpose view of the kernel's result (see the activation
      layout contract in ``docs/kernels.md``).

    ``state_dtype`` marks a recurrent slot and names the dtype of the
    state it multiplies.  :meth:`bind` resolves the registry kernel and
    leaves it inspectable as ``kernel``.
    """

    def __init__(
        self, slot: WeightSlot, scheme: Optional[str], state_dtype=None
    ) -> None:
        weight = slot.array
        self.scheme = scheme
        self.shape = weight.shape
        self.matrix = self.panel = None
        #: The registry op the kernel-selection pass names for this slot.
        self.op = kernel_for(slot.op, slot.format or "dense", scheme)
        self.out_dtype = np.dtype(
            state_dtype or (np.float32 if scheme == "fp16" else np.float64)
        )
        if slot.format not in (None, "dense"):
            self.matrix = _pack_sparse(slot, weight, scheme)
        elif self.op == "linear_int8_rowwise":
            self.codes, self.scale = int8_codes(weight)
            self.codes_f = self.codes.astype(np.float32)  # what the numpy kernel takes
        elif scheme is None:
            self.weight_t = (
                weight.copy().T
                if state_dtype is None
                else np.ascontiguousarray(weight.T)
            )
        elif scheme == "fp16":
            storage = np.clip(weight, -65504.0, 65504.0).astype(np.float16)
            self.weight_t = np.ascontiguousarray(storage.astype(np.float32).T)
        else:
            self.codes, self.scale = int8_codes(weight)
            self.weight_t = np.ascontiguousarray(
                (self.codes.astype(np.float64) * self.scale).T
            )

    def bind(self, backend: Optional[str]) -> None:
        """Resolve ``apply`` under ``backend`` (``None``: the registry's
        per-op default routing), so running a step does no dispatch."""
        if self.op == "blas_matmul":
            self.kernel, self.apply = np.matmul, self._matmul
            return
        kernel = self.kernel = kernels.registry.get(self.op, backend)
        if kernel is _compiled.linear_int8_rowwise:
            panel = self.dense_panel()
            self.apply = lambda x2d, ws, key: _compiled.panel_linear_int8(
                panel, x2d, None, ws.take(key, (len(x2d), panel.shape[0]))
            )
            return
        if self.matrix is None:
            codes_f, scale = self.codes_f, self.scale
            self.apply = lambda x2d, ws, key: kernel(codes_f, scale, x2d)
            return
        # The kernel gets the matrix, not a frozen plan: its cached plan
        # follows the matrix's invalidation rules.
        matrix, dtype = self.matrix, self.out_dtype
        if dtype == np.float64:
            self.apply = lambda x2d, ws, key: kernel(matrix, x2d.T).T
        else:  # the sparse kernels are float64-only
            self.apply = lambda x2d, ws, key: kernel(
                matrix, x2d.astype(np.float64).T
            ).T.astype(dtype)

    def dense_panel(self):
        """This dense int8 slot as the compiled kernels read it, packed once."""
        if self.panel is None:
            self.panel = _compiled.dense_int8_panel(self.codes, self.scale)
        return self.panel

    def _matmul(self, x2d: np.ndarray, ws: _Workspace, key: str) -> np.ndarray:
        out = ws.take(key, (x2d.shape[0], self.shape[0]), self.out_dtype)
        return np.matmul(x2d, self.weight_t, out=out)

    def nbytes(self) -> int:
        value_bytes = _VALUE_BYTES[self.scheme]
        if self.matrix is not None:
            return self.matrix.nbytes(value_bytes=value_bytes, index_bytes=4)
        return int(np.prod(self.shape)) * value_bytes


def _pack_sparse(slot: WeightSlot, weight: np.ndarray, scheme: Optional[str]):
    """Pack a slot as its pass-decided CSR/BSPC format, with the kernel
    plan its scheme executes built eagerly.

    All format *decisions* happen in the compiler's format-selection pass
    (:func:`repro.compiler.passes.select_formats_pass`); this function
    only executes them.
    """
    prebuilt = slot.prebuilt
    if scheme == "fp16":
        # fp16 sparse: values rounded through half precision, float
        # sparse kernels do the compute (they are float64-only).
        weight = quantize_fp16(weight)
        prebuilt = None  # built from unrounded values; cannot reuse
    if slot.format == "bspc":
        matrix = (
            prebuilt
            if prebuilt is not None
            else BSPCMatrix.from_dense(weight, slot_grid(slot))
        )
        if slot.tile is not None and slot.tile.row_block:
            # The tuner's host tile knob: install the row-blocked
            # float plan first so the int8 plan derives from it.
            kernels.pack_bspc_plan(matrix, slot.tile.row_block)
        plan_builder = int8_bspc_plan if scheme == "int8" else kernels.bspc_plan
    else:
        matrix = CSRMatrix.from_dense(weight)
        plan_builder = int8_csr_plan if scheme == "int8" else kernels.csr_plan
    plan_builder(matrix)  # build the cached execution plan now
    return matrix


def _round_bias(bias: np.ndarray, scheme: Optional[str], dtype) -> np.ndarray:
    """Biases follow the scheme's value grid (matching ``quantize_model``)."""
    if scheme == "fp16":
        return quantize_fp16(bias).astype(dtype)
    if scheme == "int8":
        codes, scale = int8_codes(bias)
        return (codes.astype(np.float64) * scale).astype(dtype)
    return bias.copy()


# ---------------------------------------------------------------------------
# Layer plans
# ---------------------------------------------------------------------------
class _RecurrentLayerPlan:
    """What GRU and LSTM layer plans share: the two packed weight slots,
    their per-slot schemes, and the layer's compute dtype."""

    bias_count = 0  # stored bias values per hidden unit

    def __init__(self, node: GraphNode, scheme: Optional[str]) -> None:
        ih_slot, hh_slot = node.weights["ih"], node.weights["hh"]
        self.scheme = scheme
        ih_scheme = _slot_scheme(ih_slot, scheme)
        hh_scheme = _slot_scheme(hh_slot, scheme)
        self.slot_schemes = (ih_scheme, hh_scheme)
        self.slot_config = (
            (ih_scheme or "float", ih_slot.format or "dense"),
            (hh_scheme or "float", hh_slot.format or "dense"),
        )
        self.hidden_size = hh_slot.shape[1]
        self.input_size = ih_slot.shape[1]
        self.dtype = (
            np.float32
            if ih_scheme == "fp16" and hh_scheme == "fp16"
            else np.float64
        )
        self.input_proj = _PackedWeight(ih_slot, ih_scheme)
        self.recurrent = _PackedWeight(hh_slot, hh_scheme, state_dtype=self.dtype)

    def bind(self, backend: Optional[str]) -> None:
        self.input_proj.bind(backend)
        self.recurrent.bind(backend)

    def nbytes(self) -> int:
        quantized = any(s is not None for s in self.slot_schemes)
        bias_bytes = self.bias_count * self.hidden_size * (2 if quantized else 8)
        return self.input_proj.nbytes() + self.recurrent.nbytes() + bias_bytes


class GRULayerPlan(_RecurrentLayerPlan):
    """One GRU layer frozen for batched inference.

    ``forward`` replays the numpy ``gru_sequence`` kernel's math — the
    same ops in the same order, run into preallocated workspace buffers —
    so for the packing-only scheme it is bit-exact, with the recurrent
    ``w_hh.T`` contiguation hoisted from per-call to compile time.

    ``gate_dtype`` is what the gate math runs in: float32 where the
    recurrent slot is int8, else the layer's ``dtype``.  Float32 gates of a
    float64 layer start from each pre-activation sum rounded once
    (``gx_zr + gh_zr``, ``gh_h + bias_h``, ``gx_h``), and the new state is
    widened back: states stay float64 and hold float32 values.
    """

    bias_count = 2 * 3

    def __init__(self, node: GraphNode, scheme: Optional[str]) -> None:
        super().__init__(node, scheme)
        ih_scheme, hh_scheme = self.slot_schemes
        self.gate_dtype = np.dtype(np.float32 if hh_scheme == "int8" else self.dtype)
        bias_ih = node.params["bias_ih"]
        bias_hh = node.params["bias_hh"]
        h = self.hidden_size
        self.fold_bias = not (ih_scheme is None and hh_scheme is None)
        if not self.fold_bias:
            self.bias_ih = bias_ih.copy()
            self.bias_hh_zr = bias_hh[: 2 * h].copy()
            self.bias_hh_h = bias_hh[2 * h :].copy()
        else:
            # Folded once at compile time; the kernel folds per call.
            # Each bias follows its own slot's value grid (exact copy for
            # a float slot in a mixed plan).
            folded = _round_bias(bias_ih, ih_scheme, np.float64)
            rounded_hh = _round_bias(bias_hh, hh_scheme, np.float64)
            folded[: 2 * h] += rounded_hh[: 2 * h]
            self.bias_folded = folded.astype(self.dtype)
            self.bias_hh_h = rounded_hh[2 * h :].astype(self.dtype)

    def zero_state(self, batch: int) -> Tuple[np.ndarray, ...]:
        return (np.zeros((batch, self.hidden_size), dtype=self.dtype),)

    def forward(
        self,
        x: np.ndarray,
        ws: _Workspace,
        index: int,
        state: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
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
        gate = self.gate_dtype
        gx_zr = gates_x[:, :, : 2 * h]
        gx_h = gates_x[:, :, 2 * h :].astype(gate, copy=False)
        out = ws.take(f"out{index}", (seq_len, batch, h), self.dtype)
        zr = ws.take("zr", (batch, 2 * h), gate)
        z = zr[:, :h]
        r = zr[:, h:]
        h_tilde = ws.take("h_tilde", (batch, h), gate)
        keep = ws.take("keep", (batch, h), gate)
        # float32 gates blend into their own buffer, widened into out[t]
        narrow = None if gate == self.dtype else ws.take("blend", (batch, h), gate)
        hidden = self.zero_state(batch)[0] if state is None else state[0]
        blended = hidden.astype(gate, copy=False)
        apply, gh_key = self.recurrent.apply, f"gh{index}"
        for t in range(seq_len):
            gh = apply(hidden, ws, gh_key)
            _sigmoid_(np.add(gx_zr[t], gh[:, : 2 * h], out=zr))
            np.add(gh[:, 2 * h :], self.bias_hh_h, out=h_tilde)
            np.multiply(r, h_tilde, out=h_tilde)
            np.tanh(np.add(gx_h[t], h_tilde, out=h_tilde), out=h_tilde)
            np.multiply(np.subtract(1.0, z, out=keep), blended, out=keep)
            blended = np.add(
                keep, np.multiply(z, h_tilde, out=h_tilde),
                out=out[t] if narrow is None else narrow,
            )
            if narrow is not None:
                out[t] = blended
            hidden = out[t]
        # never alias the caller's carry state or a work buffer
        return out, (hidden.copy(),)


class LSTMLayerPlan(_RecurrentLayerPlan):
    """One LSTM layer frozen for batched inference (gate order i,f,g,o)."""

    bias_count = 4

    def __init__(self, node: GraphNode, scheme: Optional[str]) -> None:
        super().__init__(node, scheme)
        ih_scheme, hh_scheme = self.slot_schemes
        bias = node.params["bias"]
        # The single LSTM bias adds into the input-side gates; it follows
        # the ih slot's value grid (exact copy when both slots are float).
        self.bias = (
            bias.copy()
            if ih_scheme is None and hh_scheme is None
            else _round_bias(bias, ih_scheme, self.dtype)
        )

    def zero_state(self, batch: int) -> Tuple[np.ndarray, ...]:
        zeros = np.zeros((batch, self.hidden_size), dtype=self.dtype)
        return (zeros, zeros.copy())

    def forward(
        self,
        x: np.ndarray,
        ws: _Workspace,
        index: int,
        state: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        seq_len, batch, _ = x.shape
        h = self.hidden_size
        flat = x.reshape(seq_len * batch, self.input_size)
        gates_x = self.input_proj.apply(flat, ws, f"gx{index}")
        gates_x = (gates_x + self.bias).reshape(seq_len, batch, 4 * h)
        out = ws.take(f"out{index}", (seq_len, batch, h), self.dtype)
        gates = ws.take("gates", (batch, 4 * h), self.dtype)
        input_forget = gates[:, : 2 * h]
        i = gates[:, :h]
        f = gates[:, h : 2 * h]
        g = gates[:, 2 * h : 3 * h]
        o = gates[:, 3 * h :]
        carry = ws.take("cell", (batch, h), self.dtype)
        tanh_cell = ws.take("tanh_cell", (batch, h), self.dtype)
        hidden, cell = self.zero_state(batch) if state is None else state
        apply, gh_key = self.recurrent.apply, f"gh{index}"
        for t in range(seq_len):
            np.add(gates_x[t], apply(hidden, ws, gh_key), out=gates)
            _sigmoid_(input_forget)
            np.tanh(g, out=g)
            _sigmoid_(o)
            cell = np.add(
                np.multiply(f, cell, out=carry), np.multiply(i, g, out=g), out=carry
            )
            hidden = np.multiply(o, np.tanh(cell, out=tanh_cell), out=out[t])
        return out, (hidden.copy(), cell.copy())


class OutputPlan:
    """The final linear projection over phone classes."""

    def __init__(
        self, slot: WeightSlot, bias: Optional[np.ndarray], scheme: Optional[str]
    ) -> None:
        self.scheme = scheme
        self.num_classes = slot.shape[0]
        self.weight = _PackedWeight(slot, scheme)
        dtype = np.float32 if scheme == "fp16" else np.float64
        self.bias = None if bias is None else _round_bias(bias, scheme, dtype)

    def project(self, hidden: np.ndarray, ws: _Workspace) -> np.ndarray:
        """Hidden states ``(T, B, H)`` → logits ``(T, B, C)`` (fresh array)."""
        seq_len, batch, h = hidden.shape
        logits = self.weight.apply(hidden.reshape(seq_len * batch, h), ws, "logits")
        # the sum (or the copy) is what keeps the work buffer private
        logits = logits.copy() if self.bias is None else logits + self.bias
        return logits.reshape(seq_len, batch, self.num_classes)

    def nbytes(self) -> int:
        bias_bytes = 0 if self.bias is None else self.num_classes * (
            2 if self.scheme else 8
        )
        return self.weight.nbytes() + bias_bytes


# ---------------------------------------------------------------------------
# Carry state for streaming execution
# ---------------------------------------------------------------------------
class PlanState:
    """The recurrent carry of a :class:`ModelPlan` between chunks.

    One tuple of ``(B, H)`` arrays per layer — ``(h,)`` for GRU layers,
    ``(h, c)`` for LSTM layers.  States are value objects: the plan never
    mutates a state it was handed, and the state it returns never aliases
    its internal work buffers, so a state can be held across arbitrary
    other plan calls.  ``stack``/``split`` convert between per-session
    states and one batched state — how the stream scheduler fuses
    concurrent sessions into a single ``run_chunk`` call.
    """

    def __init__(self, layer_states: List[Tuple[np.ndarray, ...]]) -> None:
        self.layer_states = layer_states

    @property
    def batch_size(self) -> int:
        return int(self.layer_states[0][0].shape[0])

    @staticmethod
    def stack(states: List["PlanState"]) -> "PlanState":
        """Concatenate per-session states along the batch axis."""
        if not states:
            raise ShapeError("cannot stack an empty list of states")
        num_layers = len(states[0].layer_states)
        stacked = []
        for layer in range(num_layers):
            parts = [s.layer_states[layer] for s in states]
            stacked.append(
                tuple(
                    np.concatenate([p[i] for p in parts], axis=0)
                    for i in range(len(parts[0]))
                )
            )
        return PlanState(stacked)

    def split(self) -> List["PlanState"]:
        """One single-row state per batch entry (copies, no aliasing)."""
        return [
            PlanState(
                [
                    tuple(component[b : b + 1].copy() for component in layer)
                    for layer in self.layer_states
                ]
            )
            for b in range(self.batch_size)
        ]


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
        layers: List,
        output: Optional[OutputPlan],
        scheme: Optional[str],
        cell_type: str,
        config: EngineConfig,
        backend: Optional[str] = None,
        graph: Optional[LayerGraph] = None,
    ) -> None:
        self.layers = layers
        self.output = output
        self.scheme = scheme
        self.cell_type = cell_type
        self.config = config
        self.backend = backend
        self.graph = graph
        self.input_dim = layers[0].input_size
        self.hidden_size = layers[0].hidden_size
        self._workspace = _Workspace()
        self._weights = [
            weight for layer in layers for weight in (layer.input_proj, layer.recurrent)
        ]
        if output is not None:
            self._weights.append(output.weight)
        self._warned_missing_backend = False
        self._bind_kernels(rebind=True)

    def _bind_kernels(self, rebind: bool = False) -> None:
        """Bind every weight's kernel for the backend in force: this
        plan's tuned ``backend``, else an explicitly chosen registry
        backend (``use_backend`` / ``set_default_backend`` /
        ``REPRO_KERNEL_BACKEND``), else the registry's per-op routing.

        Runs at lowering; every later entry re-resolves only if that
        choice has changed since (a handful of dictionary lookups), and
        lowers :attr:`program` again from what it bound.

        A plan tuned on another host may name a backend this process
        could not register (an artifact tuned for ``"compiled"`` loaded
        where no C compiler exists).  Backends are bit-compatible (int8)
        or tolerance-compatible (float) by the equivalence suite, so
        that is a performance regression, not a correctness problem:
        warn once and run on the session default instead of crashing.
        """
        backend = self.backend or None
        if backend is not None and backend not in kernels.backends():
            if not self._warned_missing_backend:
                self._warned_missing_backend = True
                warnings.warn(
                    f"plan was tuned for kernel backend {backend!r}, "
                    f"which is not available in this process "
                    f"(have: {', '.join(kernels.backends())}); "
                    "falling back to the default backend",
                    RuntimeWarning,
                    stacklevel=3,
                )
            backend = None
        backend = backend or kernels.registry.chosen_backend
        if rebind or backend != self._bound_backend:
            for layer in self.layers:
                layer.bind(backend)
            if self.output is not None:
                self.output.weight.bind(backend)
            self._bound_backend = backend
            self.program = self._lower_program()

    def _lower_program(self) -> Optional[_compiled.PlanProgram]:
        """The whole plan as one compiled call per chunk (``docs/engine.md``),
        read off the bound kernels: GRU layers whose recurrences run the
        compiled BSPC int8 kernel, every projection and the output on that
        kernel too or a dense ``linear_int8_rowwise`` slot, a library that
        took numpy's ``exp``/``tanh`` loops over.  ``None`` for any other
        plan, and the generic loop runs it."""
        narrow, slots = _compiled.bspc_spmm_int8, []
        for layer in self.layers:
            if not isinstance(layer, GRULayerPlan) or layer.recurrent.kernel is not narrow:
                return None
            slots.append((_compiled.PLAN_PROJECT, layer.input_proj, layer.bias_folded))
            slots.append((_compiled.PLAN_GRU, layer.recurrent, layer.bias_hh_h))
        if self.output is not None:
            slots.append((_compiled.PLAN_OUTPUT, self.output.weight, self.output.bias))
        if _compiled.numpy_loops() is None or any(
            weight.kernel is not narrow and weight.op != "linear_int8_rowwise"
            for _, weight, _ in slots
        ):
            return None
        try:
            return _compiled.PlanProgram(
                [
                    (kind, w.dense_panel() if w.matrix is None else w.matrix, bias)
                    for kind, w, bias in slots
                ]
            )
        except ShapeError:  # a weight re-packed to another shape: the layers say so
            return None

    def _run(
        self, features: np.ndarray, layer_states: Optional[List[Tuple[np.ndarray, ...]]]
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, ...]]]:
        """Logits and carries of one checked ``(T, B, D)`` chunk: one call into
        the program where the plan lowered to one, else layer by layer."""
        self._bind_kernels()
        seq_len, batch, _ = features.shape
        if self.program is not None and seq_len and batch:
            if self.program.stale():  # a weight's int8 plan was invalidated
                self.program = self._lower_program()
            if self.program is not None:
                return self.program.run(features, layer_states)
        x = features.astype(np.float32) if self.scheme == "fp16" else features
        new_states: List[Tuple[np.ndarray, ...]] = []
        for index, layer in enumerate(self.layers):
            carry = None if layer_states is None else layer_states[index]
            x, carry = layer.forward(x, self._workspace, index, carry)
            new_states.append(carry)
        if self.output is not None:
            x = self.output.project(x, self._workspace)
        if x.dtype != np.float64:
            x = x.astype(np.float64)
        elif self.output is None:
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
        return self._run(self._checked(features, "forward_batch"), None)[0]

    def init_state(self, batch: int) -> PlanState:
        """The all-zero carry state for ``batch`` concurrent streams."""
        if batch < 0:
            raise ShapeError(f"batch must be >= 0, got {batch}")
        return PlanState([layer.zero_state(batch) for layer in self.layers])

    def signature(self) -> Tuple:
        """The compatibility fingerprint that governs hot-swap safety.

        Two plans with equal signatures accept each other's
        :class:`PlanState` *numerically*: per-layer shapes and component
        counts match, **and** every weight slot was lowered under the
        same (scheme, format) decision.  With per-layer scheme mixing a
        shape-only fingerprint is not enough — a mixed-scheme candidate
        would accept an incumbent's state whose trajectory was produced
        on a different quantization grid, silently degrading every
        carried session.  The tuned kernel *backend* is deliberately
        excluded (backends are bit-compatible by the equivalence suite);
        the hot-swap paths (:meth:`StreamScheduler.swap_plan
        <repro.engine.streaming.StreamScheduler.swap_plan>`,
        ``fabric.swap``/``start_canary``) reject signature mismatches
        with a typed ``SwapError``.
        """
        layers = tuple(
            (
                layer.input_size,
                layer.hidden_size,
                len(layer.zero_state(0)),
                getattr(layer, "slot_config", None),
            )
            for layer in self.layers
        )
        classes = (
            None
            if self.output is None
            else (self.output.num_classes, self.output.scheme or "float")
        )
        return (self.cell_type, layers, classes)

    def adapt_state(self, state: PlanState) -> PlanState:
        """Re-home a carry state produced by a same-architecture plan.

        Returns a fresh :class:`PlanState` whose components are cast to
        *this* plan's per-layer compute dtypes (a scheme change moves
        states between float64 and float32); raises :class:`ShapeError`
        when the state's layer count, component count, or hidden sizes
        do not match this plan's architecture.
        """
        if len(state.layer_states) != len(self.layers):
            raise ShapeError(
                f"state has {len(state.layer_states)} layer states, "
                f"plan has {len(self.layers)} layers"
            )
        adapted: List[Tuple[np.ndarray, ...]] = []
        for index, (layer, components) in enumerate(
            zip(self.layers, state.layer_states)
        ):
            template = layer.zero_state(0)
            if len(components) != len(template):
                raise ShapeError(
                    f"layer {index} state has {len(components)} components, "
                    f"expected {len(template)}"
                )
            row = []
            for component, blank in zip(components, template):
                component = np.asarray(component)
                if component.ndim != 2 or component.shape[1] != layer.hidden_size:
                    raise ShapeError(
                        f"layer {index} state component has shape "
                        f"{component.shape}, expected (B, {layer.hidden_size})"
                    )
                row.append(component.astype(blank.dtype, copy=True))
            adapted.append(tuple(row))
        return PlanState(adapted)

    def run_chunk(
        self, features: np.ndarray, state: Optional[PlanState] = None
    ) -> Tuple[np.ndarray, PlanState]:
        """One streaming chunk: ``(T, B, D)`` + carry → ``(logits, carry')``.

        Feeding an utterance through ``run_chunk`` in *any* chunk split
        replays the per-timestep recurrence of :meth:`forward_batch`
        exactly; the only ops whose shape depends on the split are the
        hoisted input/output projections, whose BLAS reduction order may
        differ — so float/fp16 logits agree to reduction-order rounding
        (~1e-12 relative for float64) and int8 logits are **bit-exact**
        (per-frame activation scales, order-exact integer accumulation).
        Decoded phone sequences are identical in either case; see
        ``docs/serving.md``.

        ``state=None`` starts a fresh stream (all-zero state, identical
        to :meth:`forward_batch` on the same frames).  The returned carry
        never aliases plan work buffers, and zero-length chunks are legal
        (logits ``(0, B, C)``, state passed through).
        """
        features = self._checked(features, "run_chunk")
        batch = features.shape[1]
        if state is None:
            state = self.init_state(batch)
        elif state.batch_size != batch:
            raise ShapeError(
                f"carry state holds batch {state.batch_size}, "
                f"chunk has batch {batch}"
            )
        for index, layer in enumerate(self.layers):
            for component in state.layer_states[index]:
                if component.shape != (batch, layer.hidden_size):
                    raise ShapeError(
                        f"layer {index} state component has shape "
                        f"{component.shape}, expected ({batch}, {layer.hidden_size})"
                    )
        logits, new_states = self._run(features, state.layer_states)
        return logits, PlanState(new_states)

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


def check_features(features, axes: str, width: int, entry: str) -> np.ndarray:
    """``features`` as float64: the axes ``axes`` names, the last ``width``
    wide, every value finite.  Anything else is a :class:`ShapeError`
    naming ``entry`` — a NaN or Inf frame would quantize differently on
    each kernel backend, so no backend gets one."""
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
    graph's pass-decided per-slot formats, scheme, and kernel backend are
    executed verbatim.  Slots whose format is still undecided are sent
    through the shared pass pipeline first, so a freshly built frontend
    graph and a tuned/deserialized one lower through the same code.

    Lowering is deterministic: the same graph (same arrays, same
    annotations) always produces a plan with bit-identical outputs —
    the property the compiled-artifact round trip relies on.
    """
    _validate_scheme(graph.scheme)
    if graph.undecided():
        run_passes(graph)
    layers: List = []
    output = None
    for node in graph.nodes:
        if node.kind == "gru_cell":
            layers.append(GRULayerPlan(node, graph.scheme))
        elif node.kind == "lstm_cell":
            layers.append(LSTMLayerPlan(node, graph.scheme))
        elif node.kind == "output":
            out_slot = node.weights["w"]
            output = OutputPlan(
                out_slot,
                node.params.get("bias"),
                _slot_scheme(out_slot, graph.scheme),
            )
        else:
            raise ConfigError(
                f"cannot lower node kind {node.kind!r} to the engine"
            )
    if not layers:
        raise ConfigError("graph has no recurrent layers to lower")
    cell_type = graph.cell_type or "gru"
    return ModelPlan(
        layers,
        output,
        graph.scheme,
        cell_type,
        config or _config_from_graph(graph),
        backend=graph.backend,
        graph=graph,
    )


def compile_model(
    model,
    scheme: Optional[str] = None,
    config: EngineConfig = EngineConfig(),
) -> ModelPlan:
    """Compile a :class:`~repro.speech.model.GRUAcousticModel` (or a bare
    ``GRU``/``LSTM`` stack) into a :class:`ModelPlan`.

    The module tree is walked exactly once into the shared layer-graph IR
    (:func:`repro.compiler.pipeline.build_layer_graph`), the compiler's
    pass pipeline decides every format/kernel, and :func:`lower_graph`
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
