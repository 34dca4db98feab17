"""Run-wide configuration: tolerances, grid sizes, seeds."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances. Defaults follow the package-wide contracts."""

    gap_tol: float = 1e-8        # minimal admissible spectral gap on the circle
    tol_sym: float = 1e-9        # hermitian flavor check
    tol_unitary: float = 1e-9    # unitary flavor check
    tol_spec: float = 1e-9       # spectrum modulus / multiset re-enumeration
    tol_det: float = 1e-9        # determinant checks
    tol_eig: float = 1e-9        # eigenpair residual
    tol_membership: float = 1e-9
    tie_tol: float = 1e-12       # branch-matching ambiguity threshold
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
    tolerances: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self):
        # a bool is an int to Python, but never a count or a tolerance here
        for name in ("grid_size", "seed", "jobs", "dense_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_size < MIN_GRID:
            raise ValueError(f"grid_size must be >= {MIN_GRID}, got {self.grid_size}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        for name, value in dataclasses.asdict(self.tolerances).items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 < value < math.inf):
                raise ValueError(
                    f"tolerance {name} must be a positive finite number, got {value!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict) or not isinstance(raw.get("tolerances", {}), dict):
            raise ValueError("a config and its tolerances must be JSON objects")
        tol_raw = raw.pop("tolerances", {})
        tol = dataclasses.replace(DEFAULT_TOLERANCES, **tol_raw)
        return cls(tolerances=tol, **raw)

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)
