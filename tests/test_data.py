import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulemix.data import (
    _ENERGY_SHAPES,
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


@pytest.mark.parametrize("generate", [lambda sd: gen_xor(10, sd), lambda sd: gen_energy_like(0, sd)])
@pytest.mark.parametrize("noise_sd", [-1.0, -1e-300, float("nan"), float("inf")])
def test_generators_reject_bad_noise_level(generate, noise_sd):
    with pytest.raises(ValueError) as raised:
        generate(noise_sd)
    assert str(raised.value) == f"noise_sd must be a finite number >= 0, got {noise_sd!r}"


@pytest.mark.parametrize("generate", [lambda sd: gen_xor(10, sd), lambda sd: gen_energy_like(0, sd)])
def test_generators_take_negative_zero_noise_as_zero(generate):
    negative, zero = generate(-0.0), generate(0.0)
    assert np.array_equal(negative.xs, zero.xs) and np.array_equal(negative.ys, zero.ys)


@pytest.mark.parametrize("generate", [lambda sd: gen_xor(1000, sd), lambda sd: gen_energy_like(0, sd)])
def test_generators_name_noise_level_that_overflows(generate):
    # a finite noise level can still draw a target beyond the float range
    with pytest.raises(ValueError, match=r"^noise_sd 1e\+308 draws noise beyond the float range$"):
        generate(1e308)


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
    for n in (2.5, True):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            gen_xor(n)


def test_energy_stand_in_shape():
    data = gen_energy_like(seed=0)
    assert len(data) == 768
    assert data.dimension == 8
    assert data.feature_names == ENERGY_FEATURES
    rc = data.xs[:, 0]
    tall = data.ys[rc >= 0.75]
    short = data.ys[rc < 0.75]
    assert tall.mean() > short.mean() + 10.0


def gen_energy_like_by_loops(seed, noise_sd):
    """The stand-in as first written: its feature grid built one row at a
    time, geometry, orientation, glazing area, then distribution."""
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
    return xs, load + rng.normal(0.0, noise_sd, size=len(xs))


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("noise_sd", [0.0, 1.0, 2.5])
def test_energy_stand_in_equals_row_by_row_construction(seed, noise_sd):
    data = gen_energy_like(seed, noise_sd)
    xs, ys = gen_energy_like_by_loops(seed, noise_sd)
    assert data.xs.dtype == xs.dtype and data.xs.shape == xs.shape
    assert data.xs.tobytes() == xs.tobytes()
    assert data.ys.tobytes() == ys.tobytes()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


# the signed zero, the smallest subnormal and near-overflow magnitudes, whose
# reprs are the ones most likely not to read back
csv_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def named_datasets(draw, names=st.text()):
    """(dataset, target column name): 1-4 features, 1-5 rows, distinct names."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    *features, target = draw(st.lists(names, min_size=d + 1, max_size=d + 1, unique=True))
    table = np.array(draw(st.lists(csv_floats, min_size=n * (d + 1), max_size=n * (d + 1))))
    table = table.reshape(n, d + 1)
    return LabeledDataset(table[:, :d], table[:, d], tuple(features)), target


@settings(max_examples=200, deadline=None)
@given(named_datasets())
@example((LabeledDataset([[1.5, -0.0]], [2.0], ("area, m2", 'say "hi"')), "y"))
@example((LabeledDataset([[5e-324]], [1e308], ("line\r\nbreak",)), "cr\rtarget"))
def test_write_csv_reads_back_to_the_same_dataset(csv_path, case):
    data, target = case
    write_csv(data, csv_path, target)
    back = load_csv(csv_path, target)
    assert back.feature_names == data.feature_names
    assert back.xs.shape == data.xs.shape and back.xs.tobytes() == data.xs.tobytes()
    assert back.ys.tobytes() == data.ys.tobytes()


def write_csv_row_wise(data, path, target_column):
    """The CSV writer as it was: bare comma-joined names, then one row at a
    time.  ``write_csv`` must write its bytes for names it does not quote."""
    names = data.feature_names or tuple(f"x_{i + 1}" for i in range(data.dimension))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(list(names) + [target_column]) + "\n")
        for x, y in zip(data.xs, data.ys):
            fh.write(",".join(repr(float(v)) for v in x) + f",{float(y)!r}\n")


plain_names = st.text("abcxyzXYZ019 _.()-", min_size=1)


@settings(max_examples=100, deadline=None)
@given(named_datasets(plain_names), st.booleans())
def test_write_csv_writes_row_wise_bytes_for_plain_names(csv_path, case, unnamed):
    data, target = case
    if unnamed:
        data = LabeledDataset(data.xs, data.ys)
    write_csv(data, csv_path, target)
    written = csv_path.read_bytes()
    write_csv_row_wise(data, csv_path, target)
    assert written == csv_path.read_bytes()


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


@pytest.mark.parametrize("text", ["x,y\n1,2\n3,4\n5,6\n\n", "x,y\n1,2\n\n3,4\n5,6\n"], ids=["at-end", "between-rows"])
def test_load_csv_skips_blank_lines_and_counts_them(tmp_path, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    data = load_csv(path, "y")
    assert (data.xs.tolist(), data.ys.tolist(), data.feature_names) == ([[1.0], [3.0], [5.0]], [2.0, 4.0, 6.0], ("x",))
    path.write_text(text + "z,8\n")  # row 5: row numbers still count the blank line
    with pytest.raises(ValueError, match=r"blank.csv: row 5, column 'x': non-numeric cell 'z'$"):
        load_csv(path, "y")


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


def test_load_csv_names_non_utf8_byte_at_its_file_offset(tmp_path):
    # past the text decoder's first chunk, whose start a chunked read counts from
    path, offset = tmp_path / "d.csv", 20_010
    write_csv(gen_xor(1000, seed=1), path, "y")
    raw = bytearray(path.read_bytes())
    raw[offset] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as raised:
        load_csv(path, "y")
    assert str(raised.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
    )


def test_load_csv_drops_a_byte_order_mark_and_counts_it_in_offsets(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one
    path = tmp_path / "bom.csv"
    text = "\ufeffy,x\n1,2\n".encode()
    path.write_bytes(text)
    data = load_csv(path, "y")
    assert (data.feature_names, data.xs.tolist(), data.ys.tolist()) == (("x",), [[2.0]], [1.0])
    path.write_bytes(text + b"\xff")
    with pytest.raises(ValueError) as raised:
        load_csv(path, "y")
    assert str(raised.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position {len(text)}: invalid start byte"
    )


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
