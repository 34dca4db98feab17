"""Run-wide configuration: grid sizes and seeds, and the fixed record of
the package's numeric thresholds."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds. They are fixed: no config, flag or parameter
    sets them, and every reader takes its value from DEFAULT_TOLERANCES
    when it runs."""

    gap_tol: float = 1e-8        # minimal admissible spectral gap on the circle
    tol_sym: float = 1e-9        # hermitian flavor check
    tol_unitary: float = 1e-9    # unitary flavor check
    tol_det: float = 1e-9        # determinant checks
    tol_membership: float = 1e-9
    # diag(1..n) jitter scale; n*eps_jitter bounds the angle shift, so the
    # default keeps jittered bounds within the 1e-6 slack used downstream
    # while staying above gap_tol.
    eps_jitter: float = 1e-7
    cluster_tol: float = 1e-7    # eigenvalue clustering for normal matrices


DEFAULT_TOLERANCES = Tolerances()

DEFAULT_GRID = 2049      # power of two plus one: supports halving refinement
MIN_GRID = 17
DEFAULT_DENSE_LIMIT = 64  # largest dim for which dense realizations are built


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one CLI/acceptance run. Fixed seed => identical output."""

    grid_size: int = DEFAULT_GRID
    seed: int = 20_240_601
    jobs: int = 1  # accepted for old command lines and configs; no effect
    dense_limit: int = DEFAULT_DENSE_LIMIT
    output_format: str = "json"  # json | csv

    def __post_init__(self):
        # a bool is an int to Python, but never a count here
        for name in ("grid_size", "seed", "jobs", "dense_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_size < MIN_GRID:
            raise ValueError(f"grid_size must be >= {MIN_GRID}, got {self.grid_size}")
        if self.seed < 0:  # numpy's default_rng takes no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dense_limit < 0:  # would silently drop every dense bound
            raise ValueError(f"dense_limit must be >= 0, got {self.dense_limit}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("a config must be a JSON object")
        return cls(**raw)

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)
