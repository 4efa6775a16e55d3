import numpy as np
import pytest

from rulemix.data import (
    ENERGY_FEATURES,
    ENERGY_TARGET,
    LabeledDataset,
    gen_energy_like,
    gen_xor,
    load_csv,
    mse,
    split3,
    write_csv,
)


def test_gen_xor_noiseless_is_exact_indicator():
    data = gen_xor(500, noise_sd=0.0, seed=1)
    expected = np.logical_xor(data.xs[:, 0] < 0.5, data.xs[:, 1] < 0.5).astype(float)
    assert np.array_equal(data.ys, expected)
    assert set(np.unique(data.ys)) <= {0.0, 1.0}


def test_gen_xor_noise_stays_within_four_sigma():
    data = gen_xor(10_000, noise_sd=0.1, seed=2)
    signal = np.logical_xor(data.xs[:, 0] < 0.5, data.xs[:, 1] < 0.5).astype(float)
    violations = int(np.sum(np.abs(data.ys - signal) > 0.4))
    assert violations <= 5  # P(|eps| > 4 sd) ~ 6e-5 per row


def test_gen_xor_marginals_near_half():
    data = gen_xor(10_000, seed=3)
    means = data.xs.mean(axis=0)
    assert np.all(means >= 0.45) and np.all(means <= 0.55)


def test_gen_xor_seeded_and_validated():
    a = gen_xor(50, seed=4)
    b = gen_xor(50, seed=4)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    with pytest.raises(ValueError):
        gen_xor(0)


def test_energy_stand_in_shape():
    data = gen_energy_like(seed=0)
    assert len(data) == 768
    assert data.dimension == 8
    assert data.feature_names == ENERGY_FEATURES
    rc = data.xs[:, 0]
    tall = data.ys[rc >= 0.75]
    short = data.ys[rc < 0.75]
    assert tall.mean() > short.mean() + 10.0


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "energy.csv"
    write_csv(gen_energy_like(seed=1), path, ENERGY_TARGET)
    data = load_csv(path, ENERGY_TARGET)
    assert len(data) == 768
    assert data.dimension == 8
    assert data.feature_names == ENERGY_FEATURES


def test_load_csv_exact_small_file(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("a,b,y\n1.5,2.0,3.25\n-1.0,0.5,0.0\n")
    data = load_csv(path, "y")
    assert data.xs.tolist() == [[1.5, 2.0], [-1.0, 0.5]]
    assert data.ys.tolist() == [3.25, 0.0]
    assert data.feature_names == ("a", "b")


def test_load_csv_names_bad_cell_location(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["a,y"] + [f"{i},{i}" for i in range(1, 5)] + ["abc,9", "6,6"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="row 5, column 'a'.*'abc'"):
        load_csv(path, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_csv_names_non_finite_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b,y\n1,2,3\n4,{cell},6\n")
    with pytest.raises(ValueError, match=rf"bad.csv: row 2, column 'b': non-finite cell '{cell}'"):
        load_csv(path, "y")


def test_load_csv_missing_target(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="no column named 'y'"):
        load_csv(path, "y")


@pytest.mark.parametrize("header, repeated", [("x,y,y", "y"), ("a,a,y", "a")])
def test_load_csv_rejects_repeated_column(tmp_path, header, repeated):
    # a second target column would otherwise be loaded as a feature
    path = tmp_path / "twice.csv"
    path.write_text(f"{header}\n1,2,3\n")
    with pytest.raises(ValueError, match=f"twice.csv: column '{repeated}' appears twice"):
        load_csv(path, "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv", "y")


def test_split3_floor_sizes():
    data = gen_xor(10, seed=5)
    parts = split3(data, (0.4, 0.3, 0.3), seed=0)
    assert tuple(len(p) for p in parts) == (4, 3, 3)


def test_split3_768_sizes():
    data = gen_energy_like(seed=2)
    parts = split3(data, (0.4, 0.3, 0.3), seed=1)
    assert tuple(len(p) for p in parts) == (307, 230, 231)


def test_split3_deterministic():
    data = gen_xor(97, seed=6)
    a = split3(data, (0.4, 0.3, 0.3), seed=3)
    b = split3(data, (0.4, 0.3, 0.3), seed=3)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.xs, pb.xs)


def test_split3_partitions_exactly():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        data = LabeledDataset(rng.random((n, 1)), rng.random(n))
        parts = split3(data, (0.4, 0.3, 0.3), seed=int(rng.integers(1e9)))
        assert sum(len(p) for p in parts) == n
        merged = sorted(np.concatenate([p.xs[:, 0] for p in parts]).tolist())
        assert merged == sorted(data.xs[:, 0].tolist())


def test_split3_rejects_bad_fractions():
    data = gen_xor(10, seed=8)
    with pytest.raises(ValueError):
        split3(data, (0.5, 0.5, 0.1), seed=0)
    with pytest.raises(ValueError):
        split3(data, (1.0, 0.0, 0.0), seed=0)


def test_mse_examples():
    assert mse(np.array([1.0]), np.array([1.0])) == 0.0
    assert mse(np.zeros(2), np.array([1.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        mse(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        mse(np.zeros((2, 1)), np.zeros(2))


def test_mse_of_mean_is_population_variance():
    rng = np.random.default_rng(9)
    ys = rng.normal(size=50)
    assert mse(np.full(50, ys.mean()), ys) == pytest.approx(ys.var(), rel=1e-12)


def test_mse_invariant_to_row_order():
    rng = np.random.default_rng(10)
    xs, ys = rng.random((30, 2)), rng.normal(size=30)
    perm = rng.permutation(30)
    preds = xs[:, 0] - xs[:, 1]
    a = mse(preds, ys)
    b = mse(preds[perm], ys[perm])
    assert a == pytest.approx(b, rel=1e-12)
