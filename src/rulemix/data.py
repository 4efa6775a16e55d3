"""Labeled datasets: synthetic generators, CSV loading, splitting, error metrics."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


def check_int(name: str, value):
    """``value`` if it is an integer (a Python or numpy int, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_real(name: str, value) -> float:
    """``value`` as a float if it is a number (a Python or numpy int or
    float, not a bool); finiteness is left to the type that holds it, so an
    integer beyond float range becomes an infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_sum_of_squares(name: str, values: np.ndarray, scale: float = 1.0) -> None:
    """Reject ``values`` unless ``4 * scale * len(values) * sum(values**2)`` is
    finite: at ``scale`` 1 that bounds every sum of squares the tree grower
    and ``mse`` form from them; EM passes ``LAMBDA_BOUNDS[1]``."""
    with np.errstate(over="ignore"):
        sum_sq = float(values @ values)
    if not math.isfinite(4.0 * scale * len(values) * sum_sq):
        raise ValueError(f"{name} too large: their sum of squares overflows")


def check_count(name: str, value, minimum: int) -> None:
    """Reject a count field that is a bool, not an integer, or below ``minimum``."""
    if check_int(name, value) < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


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
    Gaussian noise; a target beyond the float range fails naming ``noise_sd``,
    the value that put it there."""
    check_count("n", n, 1)
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValueError(f"noise_sd must be a finite number >= 0, got {noise_sd!r}")
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 2))
    signal = np.logical_xor(xs[:, 0] < 0.5, xs[:, 1] < 0.5).astype(np.float64)
    # abs: numpy rejects -0.0, which passes the >= 0 check, as a negative scale
    ys = signal + rng.normal(0.0, abs(noise_sd), size=n)
    if not np.isfinite(ys).all():
        raise ValueError(f"noise_sd {noise_sd!r} draws noise beyond the float range")
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
ENERGY_NOISE_SD = 1.0  # sd of the Gaussian noise on the stand-in's heating load

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
_ENERGY_ORIENTATIONS = (2.0, 3.0, 4.0, 5.0)
# (glazing area, glazing area distribution): no glazing, or one of three
# areas spread in one of five ways
_ENERGY_GLAZING = ((0.0, 0.0),) + tuple(
    (area, dist) for area in (0.1, 0.25, 0.4) for dist in (1.0, 2.0, 3.0, 4.0, 5.0)
)


def gen_energy_like(seed: int = 0) -> LabeledDataset:
    """Synthetic stand-in for the UCI energy-efficiency table (768 rows,
    8 features, heating-load target).

    The feature grid copies the UCI design (12 geometries x 4 orientations x
    glazing options); the target is an invented heating-load model whose
    dominant effect is the compact/tall building group, plus Gaussian noise
    of sd ``ENERGY_NOISE_SD``, so it exercises the same rule structure
    without shipping the original simulation outputs.
    """
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # every geometry with every (orientation, glazing area, distribution)
    options = np.column_stack(
        [
            np.repeat(_ENERGY_ORIENTATIONS, len(_ENERGY_GLAZING)),
            np.tile(_ENERGY_GLAZING, (len(_ENERGY_ORIENTATIONS), 1)),
        ]
    )
    xs = np.column_stack(
        [
            np.repeat(_ENERGY_SHAPES, len(options), axis=0),
            np.tile(options, (len(_ENERGY_SHAPES), 1)),
        ]
    )
    rc, wall, height, area = xs[:, 0], xs[:, 2], xs[:, 4], xs[:, 6]
    load = (
        6.0
        + 16.0 * (rc >= 0.75)
        + 26.0 * (rc - 0.62)
        + 14.0 * area
        + 0.012 * (wall - 245.0)
        + 0.2 * (height - 3.5)
    )
    return LabeledDataset(xs, load + rng.normal(0.0, ENERGY_NOISE_SD, size=len(load)), ENERGY_FEATURES)


def _csv_rows(path, fh):
    """The rows of the CSV file ``fh``, open in binary mode, header first; one
    leading byte-order mark (as Excel's "CSV UTF-8" writes) is dropped.  A
    byte that is not UTF-8 raises ``ValueError`` naming ``path`` and, as the
    whole file is decoded in one pass, the byte's offset in the file; a cell
    longer than ``csv.field_size_limit()`` raises one naming ``path`` and its
    row."""
    read = 0
    try:
        text = fh.read().decode("utf-8").removeprefix("\ufeff")
        for row in csv.reader(io.StringIO(text, newline="")):
            yield row
            read += 1
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    except csv.Error as e:
        raise ValueError(f"{path}: {f'row {read}' if read else 'header'}: {e}") from None


def load_csv(path, target_column: str) -> LabeledDataset:
    """Read a comma-separated file with a header row; every non-target column
    becomes a numeric feature (header order preserved)."""
    with open(path, "rb") as fh:
        reader = _csv_rows(path, fh)
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
        if not feature_names:
            raise ValueError(f"{path}: no feature column besides the target {target_column!r}")
        rows = []
        for row_number, row in enumerate(reader, start=1):
            if not row:  # a blank line, which csv.DictReader skips too
                continue
            try:
                values = list(map(float, row))
            except ValueError:
                values = None
            if values is None or len(values) != len(header) or not all(map(math.isfinite, values)):
                # a defect: find it, cell by cell
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                    )
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
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.array(rows)
    ys = np.ascontiguousarray(table[:, target_idx])
    return LabeledDataset(np.delete(table, target_idx, axis=1), ys, tuple(feature_names))


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, its quotes doubled, when it holds a
    comma, a quote or a line break, else as it is.  (The ``csv`` writer with a
    ``"\\n"`` terminator leaves a ``"\\r"`` unquoted, which ends the row.)"""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(data: LabeledDataset, path, target_column: str = "y") -> None:
    """Write ``data`` as a CSV ``load_csv`` reads back to the same floats:
    a header row of the feature names and ``target_column``, then each row's
    features and target, every number as its ``repr``."""
    names = data.feature_names or tuple(f"x_{i + 1}" for i in range(data.dimension))
    table = np.column_stack([data.xs, data.ys]).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(map(_csv_cell, [*names, target_column])) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table)


def split3(data: LabeledDataset, fractions, seed: int = 0):
    """Seeded shuffle, then contiguous cuts at floor(f1*N) and floor((f1+f2)*N)."""
    f1, f2, f3 = fractions
    if abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if min(f1, f2, f3) <= 0.0:
        raise ValueError("all three fractions must be positive")
    check_count("seed", seed, 0)
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
