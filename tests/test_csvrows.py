"""`write_csv` writes the bytes of a per-row `%` writer.

The values are picked to break an array formatter: rounding ties, carries
into the next power of ten, the fixed/exponent notation switches, extreme
exponents, non-finite values and integer extremes. Pair columns
(values, index) are checked against the column values[index].
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holoplane import csvrows
from holoplane.csvrows import grid_columns, write_csv
from holoplane.geometry import GridSpec, make_frame

INT64 = np.iinfo(np.int64)


def reference(columns):
    """The CSV text of `columns`, written one `%` row at a time; a pair
    (values, index) is the column values[index]."""
    arrays = [np.asarray(c[0])[c[1]] if isinstance(c, tuple) else c
              for c in columns.values()]
    template = ",".join("%d" if a.dtype.kind in "biu" else "%.10g" for a in arrays) + "\n"
    rows = zip(*(a.tolist() for a in arrays))
    return ",".join(columns) + "\n" + "".join(template % row for row in rows)


def check(path, columns):
    write_csv(path, [columns])
    assert path.read_bytes().decode().split("\n") == reference(columns).split("\n")


def check_floats(path, values):
    """Each value alone, with both signs and with its two neighbours."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        v = np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])
    check(path, {"x": np.concatenate([v, -v])})


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("csvrows") / "out.csv"


def test_rounding_ties(out):
    # exact ties of the 10th digit, and decimal ties a double can only
    # approach from one side; the last two scale to a product that rounds
    # across the tie, so only the tie margin sends them to `%`
    check_floats(out, [1234567890.5, 12345678905.0, 0.5, 2.5, 1.0000000005,
                       1.2345678905, 2.0000000015e-3, 7.0000000025e15,
                       3.4664354975e-14, 8.5372427965e14])


def test_carry_into_next_power_of_ten(out):
    check_floats(out, [float(f"9.9999999995e{k}") for k in range(-30, 31)])


def test_notation_switches(out):
    check_floats(out, [1e-5, 1e-4, 1e9, 1e10, 9.999999999e-5, 9.999999999e9,
                       1.2345e-5, 1.2345e-4, 123456789.0, 1234567891.0])


def test_extreme_exponents_and_specials(out):
    check_floats(out, [1e100, 1.234567891e-100, 1e-290, 1e-291, 9.99999999995e-291,
                       1e300, 9.99999999995e300, 1e301, 1.7976931348623157e308,
                       2.2250738585072014e-308, 1e-310, 5e-324, 1e16, 0.0,
                       np.nan, np.inf])


def test_integer_extremes(out):
    ints = np.array([INT64.min, INT64.max, -10**10, 10**10, -(10**10 - 1), 10**10 - 1,
                     -1, 0, 1, 1000, 10**9, 2**53 + 1])
    check(out, {"i": ints, "flag": ints % 2 == 0,
                "u": np.full(ints.size, 2**64 - 1, dtype=np.uint64)})


def test_mixed_columns_across_chunks(out, chunk_budget):
    # 8 rows of four three-word slots and the one-word flag
    steps = chunk_budget(8 * 13 * 8)
    rng = np.random.default_rng(1)
    rows = 21
    check(out, {
        "a": rng.standard_normal(rows),
        "i": np.arange(rows) - 7,
        "b": rng.standard_normal(rows) * 1e-7,
        "flag": np.arange(rows) % 3 == 0,
        "c": np.round(rng.standard_normal(rows), 3) * 1e4,
    })
    assert steps == [8]


def test_pair_and_bool_columns_across_chunks(out, chunk_budget):
    # pair values that the array path formats and values it leaves to `%`,
    # indices in random order across chunk boundaries, and pairs between
    # array columns, so that the array columns form several runs
    steps = chunk_budget(8 * 17 * 8)
    rng = np.random.default_rng(3)
    rows = 45
    floats = np.array([np.nan, np.inf, -np.inf, 1234567890.5, 0.5, 1.0000000005,
                       -0.0, 1e-300, 9.9999999995e5, -19.89974937, 1e16])
    ints = np.array([10**10, -(10**12), INT64.max, INT64.min, 0, -3, 10**10 - 1])
    check(out, {
        "f": (floats, rng.integers(0, floats.size, rows)),
        "a": rng.standard_normal(rows),
        "k": (ints, rng.integers(0, ints.size, rows)),
        "flag": rng.random(rows) < 0.5,
        "b": rng.standard_normal(rows) * 1e12,
        "c": np.arange(rows) - 20,
        "n": (np.arange(rows) * 7, np.arange(rows)[::-1]),
        "last": rng.random(rows) < 0.3,
    })
    # 8 rows: the pairs f, k and n take 2, 3 and 1 words, the flags one each
    assert steps == [8]


@pytest.mark.parametrize("values, nbytes, words", [
    ([1.5, -12.345], 8, 1),
    ([-123.456, 2.0], 9, 2),
    ([-0.001234567891, 3.0], 16, 2),
    ([-1.234567891e-05, 7.0], 17, 3),
    # the longest text, 20 bytes: no pair slot needs all 24
    ([INT64.min, 5], 21, 3),
])
def test_pair_slot_width(out, values, nbytes, words):
    # a pair slot is the fewest words that hold its longest text plus the
    # delimiter, here `nbytes`; the pair is checked both before an array
    # column and as the last column
    values = np.asarray(values)
    assert max(map(len, reference({"p": values}).splitlines()[1:])) + 1 == nbytes
    assert csvrows._pair_slots(values, np.uint64(0)).shape == (2, words)
    index = np.array([0, 1, 1, 0, 1])
    check(out, {"p": (values, index), "a": np.linspace(-1, 1, 5), "q": (values, index[::-1])})


def test_one_entry_and_boolean_pairs(out):
    rows = 7
    check(out, {"one": (np.array([-2.5]), np.zeros(rows, int)),
                "bools": (np.array([True, False]), np.arange(rows) % 2),
                "one_int": (np.array([10**12]), np.zeros(rows, int))})


def test_pair_texts_of_different_lengths(out):
    # "0" and a 17-byte `%`-written text share one three-word slot width
    values = np.array([0.0, -1.234567891e-300])
    index = np.array([0, 1, 0, 0, 1, 1])
    check(out, {"x": (values, index), "i": np.arange(6), "y": (values, index[::-1])})


@st.composite
def mixed_columns(draw):
    """Up to six columns of `rows` rows: float, integer and boolean arrays,
    and pairs of float or integer values."""
    rows = draw(st.integers(1, 30))
    floats, ints = st.floats(), st.integers(INT64.min, INT64.max)
    columns = {}
    for c, kind in enumerate(draw(st.lists(st.sampled_from("fibp"), min_size=1, max_size=6))):
        if kind == "p":
            values = np.array(draw(st.lists(draw(st.sampled_from([floats, ints])),
                                            min_size=1, max_size=5)))
            column = (values, np.array(draw(st.lists(st.integers(0, len(values) - 1),
                                                     min_size=rows, max_size=rows))))
        else:
            element = {"f": floats, "i": ints, "b": st.booleans()}[kind]
            column = np.array(draw(st.lists(element, min_size=rows, max_size=rows)))
        columns[f"c{c}"] = column
    return columns


@given(mixed_columns(), st.integers(8, 600))
def test_mixed_columns_any_budget(out, columns, budget):
    # budgets from one row per chunk up, so chunks of every size and
    # partial last chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvrows, "CHUNK_BYTES", budget)
        check(out, columns)


def test_grid_columns_in_a_long_chunk(out, chunk_budget):
    # texts of at most 7 bytes give the d=3 grid columns one word each and
    # a flag makes the fifth, so the budget is 4300 rows, and the 6561 rows
    # are cut into two chunks at row 3280, in the middle of a grid row
    steps = chunk_budget(csvrows.CHUNK_BYTES)
    spec = GridSpec(frame=make_frame(np.eye(3)[0], 100.0), half_width=40.0, n=81)
    flag = np.arange(spec.size) % 3 == 0
    write_csv(out, [{**grid_columns(spec), "flag": flag}])
    assert steps[-1] == csvrows.CHUNK_BYTES // 40 and spec.size % steps[-1]
    i, j = np.divmod(np.arange(spec.size), spec.n)
    assert out.read_text() == reference(
        {"i": i, "j": j, "x2": spec.coords[i], "x3": spec.coords[j], "flag": flag})


@pytest.fixture
def chunk_bounds(monkeypatch):
    """The file rows (start, stop) of each chunk `write_csv` cuts, in
    order, from the bounds `csvrows._chunks` gives each block of one
    table."""
    seen = []
    chunks = csvrows._chunks

    def spy(nrows, step):
        bounds = chunks(nrows, step)
        start = seen[-1][1] if seen else 0
        seen.extend((start + lo, start + hi) for lo, hi in zip(bounds, bounds[1:]))
        return bounds

    monkeypatch.setattr(csvrows, "_chunks", spy)
    return seen


def test_block_stream(out, chunk_budget, chunk_bounds, monkeypatch):
    # a table given as blocks of 13, 3, 9 and 20 rows at a budget of 4 rows:
    # each block is cut into its own chunks, and each pair's table is
    # formatted once, from the first block
    steps = chunk_budget(4 * 8 * 8)  # two array slots, a pair and a flag
    formatted = []
    pair_slots = csvrows._pair_slots
    monkeypatch.setattr(csvrows, "_pair_slots", lambda values, end: (
        formatted.append(len(values)) or pair_slots(values, end)))
    rng = np.random.default_rng(6)
    rows = 45
    a = rng.standard_normal(rows)
    k = np.arange(rows) * 3
    flag = rng.random(rows) < 0.5
    values = np.array([0.5, -1e-7, np.nan])
    index = rng.integers(0, values.size, rows)
    bounds = [0, 13, 16, 25, rows]
    write_csv(out, ({"a": a[lo:hi], "k": k[lo:hi], "v": (values, index[lo:hi]),
                     "flag": flag[lo:hi]} for lo, hi in zip(bounds, bounds[1:])))
    assert steps == [4] and formatted == [3, 2]
    # 13 rows: round(3.25) = 3 chunks; 3: 1; 9: round(2.25) = 2; 20: 5
    assert chunk_bounds == [(0, 4), (4, 8), (8, 13), (13, 16), (16, 20), (20, 25),
                            (25, 29), (29, 33), (33, 37), (37, 41), (41, 45)]
    assert out.read_text() == reference({"a": a, "k": k, "v": (values, index), "flag": flag})


def test_recon_block_in_six_chunks(out, chunk_budget, chunk_bounds):
    # a 4096-row block of 32-word rows, the node block of a d=3 recon.csv:
    # at the default budget of 672 rows it is cut into 6 chunks of at most
    # 683 rows, not into 6 whole chunks and a partial one of 64 rows
    steps = chunk_budget(csvrows.CHUNK_BYTES)
    rng = np.random.default_rng(7)
    rows = 4096
    columns = {f"c{c}": rng.standard_normal(rows) for c in range(9)}
    columns.update({"k": np.arange(rows) * 0.5, "f": rng.random(rows) < 0.5,
                    "g": rng.random(rows) < 0.1})
    write_csv(out, [columns])
    assert steps == [672]
    assert [hi - lo for lo, hi in chunk_bounds] == [682, 683, 683, 682, 683, 683]
    assert out.read_text() == reference(columns)


def test_non_finite_values_in_ordinary_columns(out, chunk_budget):
    # '%.10g' writes a NaN as nan whatever its sign bit; x86 NaNs from 0/0
    # carry a set sign bit
    steps = chunk_budget(4 * 10 * 8)
    special = np.array([np.copysign(np.nan, -1), np.nan, np.inf, -np.inf, -0.0])
    assert np.signbit(special[0])
    rng = np.random.default_rng(5)
    rows = 11
    a = rng.standard_normal(rows)
    b = rng.standard_normal(rows) * 1e-5
    a[[0, 3, 4, 9]] = special[[0, 1, 2, 3]]
    b[[1, 4, 8, 10]] = special[[3, 0, 4, 2]]
    check(out, {"i": np.arange(rows), "a": a, "b": b, "flag": np.isnan(a)})
    assert steps == [4]
    assert out.read_text().count("nan") == 3 and "-nan" not in out.read_text()


def test_random_doubles(out):
    rng = np.random.default_rng(2)
    n = 50_000
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    short = np.round(rng.standard_normal(n) * 1e6) * 10.0 ** rng.integers(-15, 5, n)
    check(out, {"bits": bits.view(np.float64), "short": short})


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_double(out, values):
    check(out, {"x": np.array(values)})


@given(st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=40))
def test_any_int64(out, values):
    check(out, {"i": np.array(values, dtype=np.int64)})


def excerpt_table(rows):
    """Columns of a table for the excerpt tests: pairs, arrays and a flag,
    in an order where pairs and arrays alternate."""
    rng = np.random.default_rng(8)
    values = np.array([0.5, -1e-7, np.nan, 1234567890.5])
    return {
        "p": (values, rng.integers(0, values.size, rows)),
        "a": rng.standard_normal(rows),
        "k": np.arange(rows) * 0.25,
        "q": (np.arange(5) * 1e12, rng.integers(0, 5, rows)),
        "b": rng.standard_normal(rows) * 1e-9,
        "flag": rng.random(rows) < 0.5,
    }


def blocks_of(columns, bounds):
    """The block stream of `columns` cut at `bounds`."""
    for lo, hi in zip(bounds, bounds[1:]):
        yield {name: (c[0], c[1][lo:hi]) if isinstance(c, tuple) else c[lo:hi]
               for name, c in columns.items()}


@pytest.mark.parametrize("names, first, stop", [
    (["p", "a", "k", "q", "b"], 5, 38),  # from a pair to an array
    (["a", "k", "q"], 0, 45),  # every row, ending on a pair
    (["b", "flag"], 13, 14),  # one row, ending on the file's last column
    (["k"], 44, 45),  # the last row
    (["q"], 20, 20),  # no row
])
def test_excerpt_across_chunks_and_blocks(tmp_path, chunk_budget, chunk_bounds, names,
                                         first, stop):
    # blocks of 13, 3, 9 and 20 rows at a budget of 4 rows: the excerpt's
    # rows start and end inside chunks and cross chunk and block bounds
    steps = chunk_budget(4 * 13 * 8)
    rows = 45
    columns = excerpt_table(rows)
    part = tmp_path / "part.csv"
    write_csv(tmp_path / "all.csv", blocks_of(columns, [0, 13, 16, 25, rows]),
              excerpt=(part, names, slice(first, stop)))
    assert steps == [4]
    assert [lo for lo, _ in chunk_bounds] == [0, 4, 8, 13, 16, 20, 25, 29, 33, 37, 41]
    assert (tmp_path / "all.csv").read_text() == reference(columns)
    cut = {name: (columns[name][0], columns[name][1][first:stop])
           if isinstance(columns[name], tuple) else columns[name][first:stop]
           for name in names}
    assert part.read_text() == reference(cut)


@pytest.mark.parametrize("names", [["p", "k"], ["k", "a"], ["a", "x"], ["x"], []])
def test_excerpt_columns_must_be_adjacent_and_in_order(tmp_path, names):
    columns = excerpt_table(6)
    with pytest.raises(ValueError) as info:
        write_csv(tmp_path / "all.csv", [columns], excerpt=(tmp_path / "part.csv", names,
                                                            slice(0, 6)))
    assert "are not adjacent columns, in column order" in str(info.value)
