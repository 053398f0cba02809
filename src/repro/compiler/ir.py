"""Intermediate representation shared by compiler passes and both backends.

Two levels live here:

* The **layer graph** (:class:`LayerGraph` of :class:`GraphNode` /
  :class:`WeightSlot`) — the single IR every consumer lowers from.  Typed
  ops: ``linear`` input/output projections, ``gru_cell`` recurrent
  layers, ``recurrent_matvec`` hidden-state matrices, and
  ``quantize`` boundaries; per-weight attributes carry the sparse format,
  quantization scheme, tile/grid configuration, and the annotations the
  pass pipeline (:mod:`repro.compiler.passes`) fills in.  The analytic
  simulator lowers it to a :class:`KernelPlan`; the execution engine
  lowers it to a :class:`~repro.engine.plan.ModelPlan`.
* The **analytic plan** (:class:`KernelPlan`): one :class:`LayerPlan` per
  weight matrix (GEMV kernel), each carrying the statistics the mobile
  cost model needs — nonzeros, surviving rows/columns, memory traffic,
  thread row-groups from the reorder pass, and the tuned
  :class:`TileConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import CompilationError
from repro.kernels.quantized import int8_codes


@dataclass(frozen=True)
class TileConfig:
    """Execution configuration searched by the auto-tuner.

    ``rows_per_thread`` — contiguous (post-reorder) rows a thread owns per
    tile; larger tiles expose more redundant-load sharing but coarsen load
    balance.  ``unroll`` — inner-loop unroll factor (models instruction
    overhead amortization).  ``use_fp16`` — 16-bit values (the paper's GPU
    kernels) halve memory traffic.
    """

    rows_per_thread: int = 4
    unroll: int = 4
    use_fp16: bool = True

    def __post_init__(self) -> None:
        if self.rows_per_thread < 1:
            raise CompilationError(
                f"rows_per_thread must be >= 1, got {self.rows_per_thread}"
            )
        if self.unroll < 1:
            raise CompilationError(f"unroll must be >= 1, got {self.unroll}")

    @property
    def value_bytes(self) -> int:
        return 2 if self.use_fp16 else 4


@dataclass
class RowGroup:
    """Rows sharing a (similar) nonzero pattern, assigned together.

    Produced by the matrix-reorder pass; the executor distributes the rows
    of each group across threads in ``rows_per_thread`` tiles.
    """

    rows: np.ndarray  # original row indices, in execution order
    nnz_per_row: np.ndarray  # aligned with ``rows``
    pattern_key: Tuple[int, ...]  # block-column signature of the pattern
    unique_cols: int  # distinct input columns the whole group touches

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.nnz_per_row = np.asarray(self.nnz_per_row, dtype=np.int64)
        if self.rows.shape != self.nnz_per_row.shape:
            raise CompilationError(
                "rows and nnz_per_row must align: "
                f"{self.rows.shape} vs {self.nnz_per_row.shape}"
            )

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def total_nnz(self) -> int:
        return int(self.nnz_per_row.sum())


@dataclass
class LayerPlan:
    """One compiled GEMV kernel and everything the cost model needs."""

    name: str
    shape: Tuple[int, int]
    format_name: str  # "bspc", "csr", or "dense"
    nnz: int
    stored_values: int  # >= nnz for padded formats
    kept_rows: int
    unique_cols: int
    flops_per_step: int  # 2 * nnz (multiply + add)
    weight_bytes: int  # streamed once per inference
    metadata_bytes: int  # format indices / pointers
    act_loads_naive: int  # input loads per timestep without elimination
    act_loads_per_step: int  # input loads per timestep after elimination
    output_writes_per_step: int
    groups: List[RowGroup] = field(default_factory=list)
    tile: TileConfig = field(default_factory=TileConfig)
    reordered: bool = False
    row_permutation: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.format_name not in ("bspc", "csr", "dense"):
            raise CompilationError(f"unknown format {self.format_name!r}")
        if self.nnz < 0 or self.stored_values < self.nnz:
            raise CompilationError(
                f"invalid value counts: nnz={self.nnz}, stored={self.stored_values}"
            )
        if self.act_loads_per_step > self.act_loads_naive:
            raise CompilationError(
                "load elimination cannot increase loads: "
                f"{self.act_loads_per_step} > {self.act_loads_naive}"
            )

    @property
    def load_elimination_ratio(self) -> float:
        """Fraction of naive input loads removed (0 = none, →1 = most)."""
        if self.act_loads_naive == 0:
            return 0.0
        return 1.0 - self.act_loads_per_step / self.act_loads_naive

    def total_group_rows(self) -> int:
        return sum(g.num_rows for g in self.groups)


@dataclass
class KernelPlan:
    """A full compiled model: ordered layer kernels + inference geometry."""

    layers: List[LayerPlan]
    timesteps: int  # timesteps executed per reported inference frame

    def __post_init__(self) -> None:
        if not self.layers:
            raise CompilationError("a KernelPlan needs at least one layer")
        if self.timesteps < 1:
            raise CompilationError(f"timesteps must be >= 1, got {self.timesteps}")

    @property
    def total_nnz(self) -> int:
        return sum(layer.nnz for layer in self.layers)

    @property
    def total_params(self) -> int:
        return sum(layer.shape[0] * layer.shape[1] for layer in self.layers)

    @property
    def compression_rate(self) -> float:
        nnz = self.total_nnz
        return self.total_params / nnz if nnz else float("inf")

    @property
    def flops_per_inference(self) -> int:
        return sum(layer.flops_per_step for layer in self.layers) * self.timesteps

    @property
    def gop_per_inference(self) -> float:
        """Giga-operations per frame — Table II's GOP column."""
        return self.flops_per_inference / 1e9

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes + layer.metadata_bytes for layer in self.layers)


# ---------------------------------------------------------------------------
# The shared layer graph
# ---------------------------------------------------------------------------

#: Weight-level ops: batched input/output projections and the per-step
#: hidden-state matrix-vector product inside a recurrent cell.
OP_LINEAR = "linear"
OP_RECURRENT_MATVEC = "recurrent_matvec"
WEIGHT_OPS = (OP_LINEAR, OP_RECURRENT_MATVEC)

#: Node-level ops.  ``linear`` is a bare projection (the analytic
#: frontend's generic GEMV layer); ``output`` is the phone-class
#: projection; quantize boundaries are :class:`QuantBoundary` entries.
NODE_KINDS = ("gru_cell", "linear", "output")

GRAPH_FORMATS = ("dense", "csr", "bspc")
#: Graph-level schemes: ``None`` (float64) or ``"int8"``.
GRAPH_SCHEMES = (None, "int8")
#: Per-slot scheme records.  ``None`` means not yet recorded (the pass
#: pipeline records the graph's scheme); ``"float"`` is the explicit
#: record of a float graph's slot, kept distinct from ``None`` so
#: serialized slots are unambiguous.
SLOT_SCHEMES = (None, "float", "int8")
FORMAT_REQUESTS = (None, "auto", "dense", "csr", "bspc")


def slot_scheme(graph_scheme: Optional[str]) -> str:
    """The scheme every slot of a ``graph_scheme`` graph records."""
    return "int8" if graph_scheme == "int8" else "float"


@dataclass(frozen=True)
class GraphOptions:
    """Graph-level knobs read by every pass.

    ``sparse_format`` is the *request* the format-selection pass resolves
    per weight: ``None``/``"dense"`` keep everything dense, ``"csr"`` /
    ``"bspc"`` force a format, and ``"auto"`` packs any matrix whose
    density is at or below ``sparsity_threshold`` (as BSPC when the
    packed panels stay mostly full, CSR otherwise).
    ``demote_full_density`` is the analytic frontend's convention: a
    forced sparse format on a fully-dense matrix falls back to dense (the
    execution engine honours forced formats literally instead).
    """

    sparse_format: Optional[str] = None
    sparsity_threshold: float = 0.5
    num_row_strips: int = 8
    num_col_blocks: int = 8
    enable_reorder: bool = True
    enable_load_elimination: bool = True
    demote_full_density: bool = False
    tile: TileConfig = TileConfig()

    def __post_init__(self) -> None:
        if self.sparse_format not in FORMAT_REQUESTS:
            raise CompilationError(
                f"sparse_format must be one of {FORMAT_REQUESTS}, "
                f"got {self.sparse_format!r}"
            )
        if not 0.0 < self.sparsity_threshold <= 1.0:
            raise CompilationError(
                f"sparsity_threshold must be in (0, 1], got {self.sparsity_threshold}"
            )
        if self.num_row_strips < 1 or self.num_col_blocks < 1:
            raise CompilationError("num_row_strips and num_col_blocks must be >= 1")


@dataclass
class WeightSlot:
    """One weight matrix in the layer graph, plus its per-layer attributes.

    ``format`` and ``scheme`` start ``None`` (undecided); the
    format-selection pass fills both, and a tuner or a loaded artifact may
    *pin* the format beforehand — a pinned format passes through the
    pipeline untouched.  ``scheme`` records the graph's scheme on the slot
    (one of :data:`SLOT_SCHEMES`); a slot that records another scheme than
    its graph's is a :class:`CompilationError`.  The reorder and load-elimination
    passes attach the analytic annotations; the kernel selection pass
    names the kernel the op lowers to.

    The slot holds a *reference* to ``array``; frontends that promise
    snapshot semantics (the execution engine) pass in copies.
    """

    name: str
    op: str
    array: np.ndarray
    format: Optional[str] = None  # "dense" | "csr" | "bspc" once decided
    scheme: Optional[str] = None  # "float" | "int8" once recorded
    grid: Tuple[int, int] = (8, 8)  # (num_row_strips, num_col_blocks)
    kernel: Optional[str] = None  # op chosen by kernel selection
    tile: TileConfig = field(default_factory=TileConfig)
    # Analytic annotations (reorder / load-elimination passes).
    row_permutation: Optional[np.ndarray] = None
    groups: List[RowGroup] = field(default_factory=list)
    reordered: bool = False
    act_loads_naive: Optional[int] = None
    act_loads_per_step: Optional[int] = None
    # Never serialized: an explicit BlockGrid override (analytic frontend)
    # and the BSPC probe built by the "auto" format decision, kept so the
    # executable lowering does not pack the winning matrix twice.
    block_grid: Optional[object] = None
    prebuilt: Optional[object] = None

    def __post_init__(self) -> None:
        if self.op not in WEIGHT_OPS:
            raise CompilationError(f"unknown weight op {self.op!r}")
        self.array = np.asarray(self.array)
        if self.array.ndim != 2:
            raise CompilationError(
                f"weight slot {self.name!r} needs a 2-D array, "
                f"got shape {self.array.shape}"
            )
        if self.format is not None and self.format not in GRAPH_FORMATS:
            raise CompilationError(f"unknown format {self.format!r}")
        if self.scheme not in SLOT_SCHEMES:
            raise CompilationError(
                f"slot scheme must be one of {SLOT_SCHEMES}, got {self.scheme!r}"
            )

    @property
    def shape(self) -> Tuple[int, int]:
        return self.array.shape  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.array))

    @property
    def density(self) -> float:
        return self.nnz / self.array.size if self.array.size else 1.0


@dataclass
class GraphNode:
    """One layer of the model: its weight slots plus auxiliary params."""

    name: str
    kind: str
    weights: Dict[str, WeightSlot]
    params: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise CompilationError(f"unknown node kind {self.kind!r}")
        if not self.weights:
            raise CompilationError(f"node {self.name!r} has no weight slots")


@dataclass(frozen=True)
class QuantBoundary:
    """A quantize/dequantize boundary the scheme introduces at a slot."""

    slot: str
    policy: str
    op: str = "quantize"


@dataclass
class LayerGraph:
    """The unified layer-graph IR both compiler backends lower from."""

    nodes: List[GraphNode]
    scheme: Optional[str] = None
    options: GraphOptions = field(default_factory=GraphOptions)
    boundaries: List[QuantBoundary] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise CompilationError("a LayerGraph needs at least one node")
        if self.scheme not in GRAPH_SCHEMES:
            raise CompilationError(
                f"scheme must be one of {GRAPH_SCHEMES}, got {self.scheme!r}"
            )
        self.check_slot_schemes()

    def check_slot_schemes(self) -> None:
        """A :class:`CompilationError` unless every slot records this
        graph's scheme or none yet."""
        expected = slot_scheme(self.scheme)
        for _, _, slot in self.slots():
            if slot.scheme not in (None, expected):
                raise CompilationError(
                    f"slot {slot.name!r} records scheme {slot.scheme!r}, "
                    f"its graph {expected!r}"
                )

    def slots(self) -> Iterator[Tuple[GraphNode, str, WeightSlot]]:
        """Iterate ``(node, slot_key, slot)`` in execution order."""
        for node in self.nodes:
            for key, slot in node.weights.items():
                yield node, key, slot

    def slot(self, name: str) -> WeightSlot:
        """Look a weight slot up by its fully qualified name."""
        for _, _, slot in self.slots():
            if slot.name == name:
                return slot
        raise CompilationError(f"no weight slot named {name!r}")

    def formats(self) -> Dict[str, Optional[str]]:
        """Slot name → decided format (``None`` while undecided)."""
        return {slot.name: slot.format for _, _, slot in self.slots()}

    def undecided(self) -> bool:
        """True while any slot still awaits format selection."""
        return any(slot.format is None for _, _, slot in self.slots())


# ---------------------------------------------------------------------------
# Graph serialization (the compiled-artifact payload)
# ---------------------------------------------------------------------------
def _tile_to_dict(tile: TileConfig) -> Dict:
    return {
        "rows_per_thread": tile.rows_per_thread,
        "unroll": tile.unroll,
        "use_fp16": tile.use_fp16,
    }


def _tile_from_dict(data: Dict) -> TileConfig:
    # Older artifacts' tile dicts may carry a row-blocking key; it only
    # split BSPC strips into shorter panels over the same columns, so it
    # is ignored.
    return TileConfig(
        rows_per_thread=int(data["rows_per_thread"]),
        unroll=int(data["unroll"]),
        use_fp16=bool(data["use_fp16"]),
    )


#: What a nonzero weight whose int8 code is 0 comes back as: the least
#: positive float, which is nonzero (the slot's packing keeps its place)
#: and quantizes to code 0 under any normal scale.
_ZERO_CODE = float(np.nextafter(0.0, 1.0))


def _scale_round_trips(scale: float) -> bool:
    """Whether a slot stored as ``codes`` (one at ±127) and ``scale``
    rebuilds to an array that re-quantizes to both exactly: its peak is
    ``127.0 * scale``, so :func:`~repro.kernels.quantized.int8_codes`
    derives the scale ``(127.0 * scale) / 127.0``, and a normal
    ``scale`` maps each ``c * scale`` (and :data:`_ZERO_CODE`) back to
    ``c``."""
    return bool(
        np.finfo(np.float64).tiny <= scale < np.inf
        and (127.0 * scale) / 127.0 == scale
    )


def _encode_int8(array: np.ndarray, prefix: str, arrays: Dict[str, np.ndarray]) -> bool:
    """Store an int8 slot as what its lowering runs: its nonzero pattern
    (``np.packbits``, row-major), the int8 codes of those nonzeros and the
    float64 scale.  False (nothing stored) when the scale does not
    round-trip (:func:`_scale_round_trips`): the slot keeps its array."""
    mask = array != 0.0
    codes, scale = int8_codes(array[mask])  # zeros change no peak, so no code
    if not _scale_round_trips(scale):
        return False
    arrays[f"{prefix}.pattern"] = np.packbits(mask, axis=None)
    arrays[f"{prefix}.codes"] = codes
    arrays[f"{prefix}.scale"] = np.array(scale, dtype=np.float64)
    return True


def _decode_int8(shape, prefix: str, arrays) -> np.ndarray:
    """Rebuild an :func:`_encode_int8` slot as ``codes × scale`` on its
    pattern (a code of 0 as :data:`_ZERO_CODE`); a
    :class:`CompilationError` unless that re-quantizes to the same
    pattern, codes and scale."""
    pattern = np.asarray(arrays[f"{prefix}.pattern"])
    codes = np.asarray(arrays[f"{prefix}.codes"])
    scale = np.asarray(arrays[f"{prefix}.scale"])
    rows, cols = (int(n) for n in shape)
    if (
        pattern.dtype != np.uint8
        or pattern.shape != (-(-rows * cols // 8),)
        or codes.dtype != np.int8
        or codes.ndim != 1
        or scale.dtype != np.float64
        or scale.shape != ()
    ):
        raise CompilationError(f"{prefix}: malformed int8 arrays")
    mask = np.unpackbits(pattern, count=rows * cols).view(bool).reshape(rows, cols)
    if int(np.count_nonzero(mask)) != codes.size:
        raise CompilationError(
            f"{prefix}: its pattern sets {np.count_nonzero(mask)} entries "
            f"for {codes.size} codes"
        )
    if codes.size and np.abs(codes.astype(np.int16)).max() != 127:
        raise CompilationError(f"{prefix}: its codes do not peak at 127")
    if not _scale_round_trips(float(scale)):
        raise CompilationError(f"{prefix}: scale {float(scale)!r} does not round-trip")
    array = np.zeros((rows, cols))
    array[mask] = np.where(codes != 0, codes * float(scale), _ZERO_CODE)
    return array


def graph_to_arrays(graph: LayerGraph) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Split a graph into a JSON-able header and a dict of ndarrays.

    Analytic annotations (row groups, load counts) and probe matrices are
    *not* serialized — they are recomputable and irrelevant to execution;
    what round-trips exactly is everything the executable lowering reads:
    weight/param arrays, decided formats, scheme, grids, tiles.
    A weight of an int8 graph is stored as its int8 codes
    (:func:`_encode_int8`, ``"encoding": "int8"``); every other array in
    float64.
    """
    nodes_meta: List[Dict] = []
    arrays: Dict[str, np.ndarray] = {}
    for i, node in enumerate(graph.nodes):
        weights_meta: Dict[str, Dict] = {}
        for key, slot in node.weights.items():
            prefix = f"n{i}.w.{key}"
            weights_meta[key] = {
                "name": slot.name,
                "op": slot.op,
                "format": slot.format,
                "scheme": slot.scheme,
                "grid": list(slot.grid),
                "kernel": slot.kernel,
                "tile": _tile_to_dict(slot.tile),
            }
            if graph.scheme == "int8" and _encode_int8(slot.array, prefix, arrays):
                weights_meta[key]["encoding"] = "int8"
                weights_meta[key]["shape"] = list(slot.shape)
            else:
                arrays[prefix] = np.ascontiguousarray(slot.array)
        for key, param in node.params.items():
            arrays[f"n{i}.p.{key}"] = np.ascontiguousarray(param)
        nodes_meta.append(
            {
                "name": node.name,
                "kind": node.kind,
                "weights": weights_meta,
                "params": list(node.params),
            }
        )
    meta = {
        "version": 2,
        "scheme": graph.scheme,
        "options": {
            "sparse_format": graph.options.sparse_format,
            "sparsity_threshold": graph.options.sparsity_threshold,
            "num_row_strips": graph.options.num_row_strips,
            "num_col_blocks": graph.options.num_col_blocks,
            "enable_reorder": graph.options.enable_reorder,
            "enable_load_elimination": graph.options.enable_load_elimination,
            "demote_full_density": graph.options.demote_full_density,
            "tile": _tile_to_dict(graph.options.tile),
        },
        "boundaries": [
            {"slot": b.slot, "policy": b.policy} for b in graph.boundaries
        ],
        "nodes": nodes_meta,
    }
    return meta, arrays


def graph_from_arrays(meta: Dict, arrays) -> LayerGraph:
    """Rebuild a :class:`LayerGraph` from :func:`graph_to_arrays` output.

    Formats recorded in ``meta`` come back *pinned*, so re-running the
    pass pipeline (or lowering directly) reproduces the recorded
    decisions instead of re-deciding them.  The ``"backend"`` key an older
    header carries (a kernel backend the artifact was tuned for, whatever
    its value) is ignored: every plan runs the same kernels.
    """
    version = meta.get("version")
    if version not in (1, 2):
        raise CompilationError(f"unsupported layer-graph version {version!r}")
    nodes: List[GraphNode] = []
    for i, node_meta in enumerate(meta["nodes"]):
        weights: Dict[str, WeightSlot] = {}
        for key, slot_meta in node_meta["weights"].items():
            prefix = f"n{i}.w.{key}"
            encoding = slot_meta.get("encoding")
            if encoding is None:
                array = np.asarray(arrays[prefix])
            elif encoding == "int8":
                array = _decode_int8(slot_meta["shape"], prefix, arrays)
            else:
                raise CompilationError(f"{prefix}: unknown encoding {encoding!r}")
            weights[key] = WeightSlot(
                name=slot_meta["name"],
                op=slot_meta["op"],
                array=array,
                format=slot_meta["format"],
                # Older artifacts predate per-slot records; ``None`` is
                # filled from the graph's scheme by the pass pipeline.
                scheme=slot_meta.get("scheme"),
                grid=tuple(slot_meta["grid"]),  # type: ignore[arg-type]
                kernel=slot_meta.get("kernel"),
                tile=_tile_from_dict(slot_meta["tile"]),
            )
        params = {
            key: np.asarray(arrays[f"n{i}.p.{key}"]) for key in node_meta["params"]
        }
        nodes.append(
            GraphNode(
                name=node_meta["name"],
                kind=node_meta["kind"],
                weights=weights,
                params=params,
            )
        )
    options_meta = dict(meta["options"])
    options_meta["tile"] = _tile_from_dict(options_meta["tile"])
    return LayerGraph(
        nodes=nodes,
        scheme=meta["scheme"],
        options=GraphOptions(**options_meta),
        boundaries=[
            QuantBoundary(slot=b["slot"], policy=b["policy"])
            for b in meta["boundaries"]
        ],
    )
