"""Labeled datasets: synthetic generators, CSV loading, splitting, error metrics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabeledDataset:
    xs: np.ndarray
    ys: np.ndarray
    feature_names: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=np.float64))
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=np.float64))
        if self.xs.ndim != 2 or len(self.xs) != len(self.ys):
            raise ValueError("xs must be (N, D) with one target per row")
        if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise ValueError("non-finite dataset values")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != self.xs.shape[1]:
                raise ValueError("feature_names length must match D")
            object.__setattr__(self, "feature_names", names)

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]


def gen_xor(n: int, noise_sd: float = 0.1, seed: int = 0) -> LabeledDataset:
    """x uniform on [0,1]^2; y = 1 iff exactly one coordinate is < 0.5, plus
    Gaussian noise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 2))
    signal = np.logical_xor(xs[:, 0] < 0.5, xs[:, 1] < 0.5).astype(np.float64)
    ys = signal + rng.normal(0.0, noise_sd, size=n)
    return LabeledDataset(xs, ys, ("x_1", "x_2"))


ENERGY_FEATURES = (
    "Relative Compactness",
    "Surface Area",
    "Wall Area",
    "Roof Area",
    "Overall Height",
    "Orientation",
    "Glazing Area",
    "Glazing Area Distribution",
)
ENERGY_TARGET = "Heating Load"

# Twelve building geometries (relative compactness, surface area, wall area,
# roof area, overall height); tall buildings are exactly those with
# compactness above 0.75.
_ENERGY_SHAPES = (
    (0.98, 514.5, 294.0, 110.25, 7.0),
    (0.90, 563.5, 318.5, 122.50, 7.0),
    (0.86, 588.0, 294.0, 147.00, 7.0),
    (0.82, 612.5, 318.5, 147.00, 7.0),
    (0.79, 637.0, 343.0, 147.00, 7.0),
    (0.76, 661.5, 416.5, 122.50, 7.0),
    (0.74, 686.0, 245.0, 220.50, 3.5),
    (0.71, 710.5, 269.5, 220.50, 3.5),
    (0.69, 735.0, 294.0, 220.50, 3.5),
    (0.66, 759.5, 318.5, 220.50, 3.5),
    (0.64, 784.0, 343.0, 220.50, 3.5),
    (0.62, 808.5, 367.5, 220.50, 3.5),
)


def gen_energy_like(seed: int = 0, noise_sd: float = 1.0) -> LabeledDataset:
    """Synthetic stand-in for the UCI energy-efficiency table (768 rows,
    8 features, heating-load target).

    The feature grid copies the UCI design (12 geometries x 4 orientations x
    glazing options); the target is an invented heating-load model whose
    dominant effect is the compact/tall building group, so it exercises the
    same rule structure without shipping the original simulation outputs.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for shape in _ENERGY_SHAPES:
        for orientation in (2, 3, 4, 5):
            for area in (0.0, 0.1, 0.25, 0.4):
                dists = (0,) if area == 0.0 else (1, 2, 3, 4, 5)
                for dist in dists:
                    rows.append(shape + (orientation, area, dist))
    xs = np.array(rows)
    rc, wall, height, area = xs[:, 0], xs[:, 2], xs[:, 4], xs[:, 6]
    load = (
        6.0
        + 16.0 * (rc >= 0.75)
        + 26.0 * (rc - 0.62)
        + 14.0 * area
        + 0.012 * (wall - 245.0)
        + 0.2 * (height - 3.5)
    )
    ys = load + rng.normal(0.0, noise_sd, size=len(xs))
    return LabeledDataset(xs, ys, ENERGY_FEATURES)


def load_csv(path, target_column: str) -> LabeledDataset:
    """Read a comma-separated file with a header row; every non-target column
    becomes a numeric feature (header order preserved)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"{path}: column {name!r} appears twice")
        if target_column not in header:
            raise ValueError(f"{path}: no column named {target_column!r}")
        target_idx = header.index(target_column)
        feature_names = [h for i, h in enumerate(header) if i != target_idx]
        xs, ys = [], []
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for col, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_number}, column {col!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {row_number}, column {col!r}: "
                        f"non-finite cell {cell!r}"
                    )
                values.append(value)
            ys.append(values.pop(target_idx))
            xs.append(values)
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return LabeledDataset(np.array(xs), np.array(ys), tuple(feature_names))


def write_csv(data: LabeledDataset, path, target_column: str = "y") -> None:
    names = data.feature_names or tuple(f"x_{i + 1}" for i in range(data.dimension))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(list(names) + [target_column]) + "\n")
        for x, y in zip(data.xs, data.ys):
            fh.write(",".join(repr(float(v)) for v in x) + f",{float(y)!r}\n")


def split3(data: LabeledDataset, fractions, seed: int = 0):
    """Seeded shuffle, then contiguous cuts at floor(f1*N) and floor((f1+f2)*N)."""
    f1, f2, f3 = fractions
    if abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if min(f1, f2, f3) <= 0.0:
        raise ValueError("all three fractions must be positive")
    n = len(data)
    perm = np.random.default_rng(seed).permutation(n)
    a = int(np.floor(f1 * n))
    b = int(np.floor((f1 + f2) * n))
    parts = []
    for sel in (perm[:a], perm[a:b], perm[b:]):
        parts.append(LabeledDataset(data.xs[sel], data.ys[sel], data.feature_names))
    return tuple(parts)


def mse(preds, targets) -> float:
    """Mean squared error between two equal-length arrays."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(targets) == 0:
        raise ValueError("empty dataset")
    if preds.shape != targets.shape:
        raise ValueError(f"{preds.shape} predictions for {targets.shape} targets")
    return float(np.mean((preds - targets) ** 2))
