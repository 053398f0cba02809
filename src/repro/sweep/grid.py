"""The sweep grid: sparsity × quantization scheme × block size.

Table 1 of the paper is a *population* of models — each row a
(compression rate, scheme) point trained through the same BSP
prune→retrain recipe.  :class:`SweepCell` is one such point plus the
block grid it prunes under; :func:`build_grid` enumerates the cross
product in deterministic order (the order is part of the sweep's
contract: cell indices seed per-cell fault plans and trainer shuffles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.pruning.bsp import BSPConfig

#: Quantization schemes a cell's plan can compile under.
SCHEMES = (None, "int8")


@dataclass(frozen=True)
class SweepCell:
    """One grid point: BSP rates + block grid + compile scheme."""

    col_rate: float
    row_rate: float
    scheme: Optional[str]
    num_row_strips: int = 2
    num_col_blocks: int = 2

    def __post_init__(self) -> None:
        if self.col_rate < 1.0 or self.row_rate < 1.0:
            raise ConfigError(
                f"compression rates must be >= 1, got "
                f"col={self.col_rate}, row={self.row_rate}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.num_row_strips < 1 or self.num_col_blocks < 1:
            raise ConfigError("block grid dimensions must be >= 1")

    @property
    def name(self) -> str:
        """Registry-safe cell identifier, e.g. ``c8.0-r1.25-int8-g4x4``."""
        scheme = self.scheme or "float"
        return (
            f"c{self.col_rate:g}-r{self.row_rate:g}-{scheme}"
            f"-g{self.num_row_strips}x{self.num_col_blocks}"
        )

    @property
    def nominal_compression(self) -> float:
        return self.col_rate * self.row_rate

    def bsp_config(
        self,
        *,
        rho: float,
        step1_admm_epochs: int,
        step1_retrain_epochs: int,
        step2_admm_epochs: int,
        step2_retrain_epochs: int,
    ) -> BSPConfig:
        return BSPConfig(
            col_rate=self.col_rate,
            row_rate=self.row_rate,
            num_row_strips=self.num_row_strips,
            num_col_blocks=self.num_col_blocks,
            rho=rho,
            step1_admm_epochs=step1_admm_epochs,
            step1_retrain_epochs=step1_retrain_epochs,
            step2_admm_epochs=step2_admm_epochs,
            step2_retrain_epochs=step2_retrain_epochs,
        )

    def to_dict(self) -> dict:
        return {
            "col_rate": self.col_rate,
            "row_rate": self.row_rate,
            "scheme": self.scheme,
            "num_row_strips": self.num_row_strips,
            "num_col_blocks": self.num_col_blocks,
        }


def build_grid(
    rates: Sequence[Tuple[float, float]],
    schemes: Sequence[Optional[str]],
    blocks: Sequence[Tuple[int, int]] = ((2, 2),),
) -> List[SweepCell]:
    """Cross product in deterministic (rates → schemes → blocks) order."""
    if not rates or not schemes or not blocks:
        raise ConfigError("sweep grid axes must be non-empty")
    grid = [
        SweepCell(
            col_rate=float(col),
            row_rate=float(row),
            scheme=scheme,
            num_row_strips=int(strips),
            num_col_blocks=int(cols),
        )
        for col, row in rates
        for scheme in schemes
        for strips, cols in blocks
    ]
    names = [cell.name for cell in grid]
    if len(set(names)) != len(names):
        raise ConfigError(f"sweep grid has duplicate cells: {names}")
    return grid


__all__ = ["SCHEMES", "SweepCell", "build_grid"]
