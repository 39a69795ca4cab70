"""CSV writer and grid-node columns shared by the per-node exporters.

`write_csv` takes a table as a stream of blocks of consecutive rows, each
a dict of named columns, so a caller can make each block's columns only
when the writer reaches it: `recon.recon_to_csv` writes a run's node blocks
one by one, and no column of the whole table need exist. It writes float
columns as `'%.10g' % v` and integer and boolean columns as `'%d' % v`
would, byte for byte, but it formats a chunk of rows with numpy array
operations instead of one Python format call per value.

A column that holds few distinct values is given as a pair
(values, index), meaning values[index]. Its values are formatted once per
file, into a table of slots, and each chunk copies the slots of its
indices. A boolean column is the pair ([0, 1], column). `grid_columns`
gives the d=3 node columns i, j, x2 and x3 of a node range as pairs over
the n axis values, indexed by the range's axis indices
(`GridSpec.node_axes`), so each grid coordinate is formatted once per axis
value.

An integer below 10**10 in magnitude is exactly a float64 whose `%.10g`
text is its `%d` text, so every column goes through one float formatter.
A chunk is one array of little-endian 64-bit words, a row of slots per
CSV row. Bytes a text does not use are NUL, the last byte of each slot
holds its column's `,` or `\\n`, and one `bytes.translate` per chunk
deletes the NULs. A pair's slot holds its `%` text left-aligned in the
fewest words that hold the longest text of its table plus the delimiter;
in the default d=3 run the grid columns and the flags take 8 or 16 bytes.
Each value of an array column gets a 24-byte slot of three words, which
holds, at fixed offsets:

- byte 0: `-` when the sign bit is set (so -0.0 is written `-0`);
- bytes 1-5: the `0.`, `0.0`, `0.00` or `0.000` prefix of fixed notation
  with exponent -1 to -4;
- bytes 6-16: the ten mantissa digits with trailing zeros masked to NUL
  (fixed notation keeps its integer digits), and one `.` inserted by a
  128-bit shift of the digits after it;
- bytes 17-21: the `e+05` or `e-100` suffix of exponent notation.

The digits are those of %.10g's correctly rounded 10-digit mantissa
m = rint(|x| * 10**(9 - e)), with e = floor(log10|x|) and 10**(9 - e) a
correctly rounded double. The product is then within 2.2e-6 of the exact
|x| * 10**(9 - e), so rint gives the correct rounding of the exact value
unless that lies within this distance of a tie. m is split into groups of
2, 4 and 4 digits, read from a table of the 10**4 four-digit ASCII groups.
The non-finite values are written from constant slots: `nan` (which
`%.10g` writes without a sign, whatever the sign bit), `inf` and `-inf`.
Every value this argument does not cover is written by `%` into its slot
instead:

- e outside -290..300, a margin inside the double range, where
  10**(9 - e) would overflow for the smallest values;
- a scaled value within 1e-5 of a rounding tie (about 1 value in 10**5);
- a scaled value outside (1e9 - 0.01, 1e10 + 1). log10 misplaces e by one
  only within a few ulps of a power of ten, and inside this interval the
  misplaced e still gives %.10g's digits;
- integers with |v| >= 10**10.

The budget of a chunk is as many rows as fit in CHUNK_BYTES of slots
(`_chunk_rows`: 672 rows of a d=3 `recon.csv`, 2389 of a d=3
`hologram.csv`), and each block is cut into near-equal chunks (`_chunks`).
Each run of adjacent array columns is formatted by one `_format` call
straight into its words of the chunk. A chunk holds at most 1.5 times the
budget, so the slot array and the bytes made from it take at most 258 kB
each, and the formatter's temporaries at most 86 kB each. The lookup
tables, about 120 kB, are built on the first write, so `import holoplane`
does not pay for them.

An excerpt (adjacent columns over a contiguous range of rows, such as
`profile.csv` of `recon.csv`) is written to a second file from the same
slot words, the last one's delimiter byte set to `\n`, with one more
`translate` per chunk: its values are not formatted again.
"""

import contextlib
import functools
from types import SimpleNamespace

import numpy as np

# Slot bytes per chunk, 168 KiB: large enough to amortise the per-chunk
# numpy calls, small enough that the chunk's temporaries do not raise the
# peak memory.
CHUNK_BYTES = 512 * 14 * 24

E_MIN, E_MAX = -290, 300  # exponents of the floats the array path formats
ROW0 = 1 - E_MIN  # table row of exponent e is e + ROW0; row 0 writes zero
TIE = 0.5 - 1e-5  # |scaled - m| from here on is too close to a tie
LOW, HIGH = 1e9 - 0.01, 1e10 + 1  # scaled values the array path takes
FALLBACK = "S23"  # a `%`-written slot: text and NUL padding, no delimiter
U8 = np.dtype("<u8")
MINUS = np.uint64(ord("-"))
LAST = np.uint64(56)  # shift to the last byte of a slot word


def _pack(text, byte):
    """ASCII `text` as a little-endian integer, its first byte at `byte`."""
    return int.from_bytes(text.encode(), "little") << 8 * byte


def _words(values):
    """128-bit integers as a (2, len) array of their low and high words."""
    return np.array([[v & (2**64 - 1) for v in values], [v >> 64 for v in values]], U8)


def _digit_bytes(first, last):
    """Mask of the slot bytes of mantissa digits first..last-1."""
    return sum(0xFF << 8 * (6 + j) for j in range(first, last))


def _exponent_row(e):
    """Table row of exponent e (None: the value zero): the scale
    10**(9 - e), the fixed-notation prefix, the exponent suffix, the digits
    written before the dot (10: no dot) and the digits written whatever the
    trailing zeros."""
    if e is None:
        return 0.0, 0, 0, 10, 1  # a zero scale sends tiny values to `%`
    scale = float(f"1e{9 - e}")
    if 0 <= e <= 9:
        return scale, 0, 0, e + 1, e + 1
    if -4 <= e < 0:
        return scale, _pack("0." + "0" * (-e - 1), 1), 0, 10, 1
    return scale, 0, _pack(f"e{e:+03d}", 1), 1, 1


@functools.cache
def _tables():
    """Lookup tables of the array formatter, built on the first write."""
    # Digit groups: the 2-digit group (100 is a carry, written "10") at
    # slot bytes 6-7, and the 4-digit groups, shifted to bytes 8-11 or
    # 12-15. kept_* is 11 x the digits written up to a group's last nonzero
    # digit, counted from the first digit. The 10**4 groups are built with
    # array arithmetic: as Python strings they would cost more memory than
    # the tables.
    pairs = [f"{a:02d}" for a in range(100)] + ["10"]
    quad = np.arange(10**4)
    ascii4 = np.zeros(10**4, U8)
    sig = np.full(10**4, 4)  # 4 less the trailing zeros: 0 for 0000
    for k in range(4):
        ascii4 |= (quad // 10 ** (3 - k) % 10 + ord("0")).astype(U8) << np.uint64(8 * k)
        sig -= quad % 10 ** (k + 1) == 0
    t = SimpleNamespace(
        ascii_a=np.array([_pack(p, 6) for p in pairs], U8),
        ascii4=ascii4,
        kept_a=11 * np.array([len(p.rstrip("0")) for p in pairs], np.uint8),
        kept_b=(11 * np.where(sig > 0, 2 + sig, 0)).astype(np.uint8),
        kept_c=(11 * np.where(sig > 0, 6 + sig, 0)).astype(np.uint8),
    )

    # Row e + ROW0 for exponents E_MIN..E_MAX + 1 (a carry can reach
    # E_MAX + 1), row 0 for zero.
    scale, head, tail, before, least = zip(
        *map(_exponent_row, [None, *range(E_MIN, E_MAX + 2)]))
    t.scale = np.array(scale)
    t.head, t.tail = np.array(head, U8), np.array(tail, U8)
    t.before, t.least = np.array(before, np.uint8), 11 * np.array(least, np.uint8)

    # The slots of nan (whatever its sign bit), inf and -inf.
    t.special = np.array([[_pack(text, 0), 0, 0] for text in ("nan", "inf", "-inf")], U8)

    # Dot insertion, indexed by 11 x kept digits + digits before the dot:
    # the digit bytes that stay, those that move up one byte, and the dot.
    combos = [(kept, b) for kept in range(11) for b in range(11)]
    t.stay = _words([_digit_bytes(0, min(kept, b)) for kept, b in combos])
    t.move = _words([_digit_bytes(b, kept) for kept, b in combos])
    t.dot = _words([_pack(".", 6 + b) if kept > b else 0 for kept, b in combos])
    return t


def _format(block, cap, t, words):
    """Write the slot words of float64 `block` into `words`, shaped
    (rows, cols, 3), without the delimiters, and return the mask of the
    values the words do not hold. Column c is formatted only up to exponent
    row cap[c]."""
    a = np.abs(block)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, inf and nan
        row = np.log10(a)
        row += ROW0
        np.floor(row, out=row)
        np.fmax(row, 0, out=row)  # zero (-inf) and nan: row 0
        np.fmin(row, E_MAX + ROW0, out=row)
        row = row.astype(np.intp)
        s = a * t.scale.take(row)
        m = np.rint(s)
        ok = np.abs(s - m) < TIE
        ok &= (s > LOW) & (s < HIGH)
    ok &= row <= cap
    ok |= block == 0
    np.fmin(m, 1e10, out=m)  # a carry to 10**10 is written "10" + "0" * 8
    row += m == 1e10
    m = m.astype(np.int64)
    a = m // 10**8
    m -= a * 10**8
    b = m // 10**4
    c = m - b * 10**4

    digits0 = t.ascii_a.take(a)
    digits1 = t.ascii4.take(c)
    digits1 <<= 32
    digits1 |= t.ascii4.take(b)
    kept = t.kept_a.take(a)
    for table, index in ((t.kept_b, b), (t.kept_c, c), (t.least, row)):
        np.maximum(kept, table.take(index), out=kept)
    kept += t.before.take(row)
    at = kept.astype(np.intp)
    moved0 = digits0 & t.move[0].take(at)  # digit 1 or nothing: digit 0 stays
    moved1 = digits1 & t.move[1].take(at)
    digits0 &= t.stay[0].take(at)
    digits1 &= t.stay[1].take(at)

    w = block.view(np.uint64) >> 63  # the sign bit, set also for -0.0
    w *= MINUS
    w |= t.head.take(row)
    w |= digits0
    w |= t.dot[0].take(at)
    words[..., 0] = w
    digits1 |= moved1 << 8
    digits1 |= moved0 >> 56
    digits1 |= t.dot[1].take(at)
    words[..., 1] = digits1
    moved1 >>= 56
    moved1 |= t.tail.take(row)
    words[..., 2] = moved1
    return ok


def _chunk_rows(words):
    """Rows per chunk of a file whose rows take `words` slot words: as many
    as fit in CHUNK_BYTES, and at least one."""
    return max(1, CHUNK_BYTES // (8 * words))


def grid_columns(spec, rows=slice(None)):
    """Node index and in-plane coordinate columns of a per-node CSV at the
    contiguous node range `rows` (default: all), by name, in node order
    (d=3: i,j,x2,x3; d=2: i,x2). For d=3 each is the pair (axis values, the
    nodes' row or column numbers, `GridSpec.node_axes`), which `write_csv`
    formats once per axis value; for d=2 the node is the axis index."""
    idx, coords = np.arange(spec.n), spec.coords
    if spec.frame.dim == 3:
        row, col = spec.node_axes(rows)
        return {"i": (idx, row), "j": (idx, col), "x2": (coords, row), "x3": (coords, col)}
    return {"i": idx[rows], "x2": coords[rows]}


def _template(column):
    """'%d' for an integer or boolean column, '%.10g' for a float one."""
    return "%d" if column.dtype.kind in "biu" else "%.10g"


def _slots(arrays, t, words):
    """Write the slot words of the equal-length 1-d `arrays` into `words`,
    shaped (rows, len(arrays), 3), without the delimiters: `_format`'s
    words, the constant slots of the non-finite values, and `%`'s text for
    the other values the words do not hold."""
    templates = [_template(a) for a in arrays]
    # integers from 10**10 on (exponent row past 9 + ROW0) are left to '%d'
    cap = np.array([9 + ROW0 if tpl == "%d" else E_MAX + ROW0 for tpl in templates])
    block = np.stack(arrays, axis=1, dtype=np.float64)
    rows, cols = np.nonzero(~_format(block, cap, t, words))
    if not rows.size:
        return
    v = block[rows, cols]
    special = ~np.isfinite(v)
    if special.any():
        v = v[special]
        words[rows[special], cols[special]] = t.special.take(
            np.where(np.isnan(v), 0, 1 + (v < 0)), axis=0)
        rows, cols = rows[~special], cols[~special]
    if rows.size:
        text = np.array([templates[c] % arrays[c][r]
                         for r, c in zip(rows.tolist(), cols.tolist())], FALLBACK)
        words.view(np.uint8)[rows, cols, :text.itemsize] = (
            text.view(np.uint8).reshape(rows.size, -1))


def _pair_slots(values, end):
    """Slot words of a pair's `values`, shaped (len(values), words): each
    value's `%` text left-aligned in the fewest words that hold the longest
    text and its delimiter, and `end`, the delimiter shifted to the top
    byte, in the last word."""
    template = _template(values)
    texts = [(template % v).encode() for v in values.tolist()]
    words = (max(map(len, texts), default=0) + 8) // 8
    table = np.array(texts, f"S{8 * words}").view(U8).reshape(len(texts), words)
    table[:, -1] |= end
    return table


def _layout(columns, excerpt):
    """Row layout of a table with the `columns` of its first block: the
    delimiter of each column, shifted to a slot word's last byte (`ends`),
    the first slot word of each column and the row's end (`starts`), the
    slot table of each pair by column number, the [first, last + 1]
    columns of each run of adjacent array columns, the rows per chunk of
    the budget, and the files to write (`cuts`): the table, and the
    `write_csv` excerpt if one is given, each as (header names, first slot
    word, end word, the flip of its last delimiter to `\n`, file rows)."""
    ends = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], U8) << LAST
    pairs, runs, starts = {}, [], [0]
    for c, column in enumerate(columns.values()):
        if isinstance(column, np.ndarray) and column.dtype == bool:
            column = (np.array([0, 1]), column)
        if isinstance(column, tuple):
            pairs[c] = _pair_slots(np.asarray(column[0]), ends[c])
        elif runs and runs[-1][1] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, c + 1])
        starts.append(starts[-1] + (pairs[c].shape[1] if c in pairs else 3))
    header = list(columns)
    cuts = [(header, 0, starts[-1], 0, slice(0, np.inf))]
    if excerpt is not None:
        names = list(excerpt[1])
        c0 = next((c for c in range(len(header)) if header[c:c + len(names)] == names), None)
        if not names or c0 is None:
            raise ValueError(f"excerpt columns {names} are not adjacent columns, "
                             f"in column order, of {header}")
        c1 = c0 + len(names)
        cuts.append((names, starts[c0], starts[c1], ends[c1 - 1] ^ ends[-1], excerpt[2]))
    return SimpleNamespace(ends=ends, pairs=pairs, runs=runs, starts=starts, cuts=cuts,
                           step=_chunk_rows(starts[-1]))


def _chunks(nrows, step):
    """Bounds of the chunks of a block of `nrows` rows: round(nrows / step)
    chunks, at least one, of near-equal size. A block is never cut at
    `step` rows into whole chunks and a partial one: a partial chunk costs
    the per-chunk numpy calls of a whole one (a 4096-node block of a d=3
    `recon.csv` is 6 chunks of at most 683 rows, not 6 of 672 and one of
    64)."""
    count = max(1, round(nrows / step))
    return [nrows * k // count for k in range(count + 1)]


def write_csv(path, blocks, excerpt=None):
    """Write `blocks` as CSV with a header line. `blocks` is an iterable of
    dicts from header name to column, one dict per block of consecutive
    rows, in row order; each block has the names of the first, in the same
    order, and the same kind of column under each name. A block is let go
    before the next one is asked for, so a stream that makes its blocks on
    demand holds one at a time.

    A column is a 1-d array, or a pair (values, index) of arrays that
    stands for values[index], whose values are formatted once per file,
    from the first block, so every block must give the same values. A
    boolean column is written as the pair ([0, 1], column). Every column of
    a block has its row count.

    `excerpt`, if given, is (path, names, rows): the CSV of the columns
    `names`, adjacent and in column order (else ValueError), at the file
    rows `rows` (a slice with start and stop), written to that path."""
    t = _tables()
    layout = None
    start = 0  # file row of the block's first row
    paths = [path] if excerpt is None else [path, excerpt[0]]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in paths]
        for columns in blocks:
            if layout is None:
                layout = _layout(columns, excerpt)
                for fh, (names, *_) in zip(files, layout.cuts):
                    fh.write((",".join(names) + "\n").encode())
            start += _write_block(files, columns, start, layout, t)
            del columns


def _write_block(files, columns, start, layout, t):
    """Write the rows of the block `columns`, whose first row is row
    `start` of the file, chunk by chunk, to `files` as `layout.cuts` says;
    return the block's row count."""
    # a pair's index, or the column itself
    arrays = [c[1] if isinstance(c, tuple) else c for c in columns.values()]
    nrows = len(arrays[0])
    bounds = _chunks(nrows, layout.step)
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = [a[lo:hi] for a in arrays]
        words = np.empty((hi - lo, layout.starts[-1]), U8)
        for c0, c1 in layout.runs:
            # a view: the run's words are contiguous within each row
            slots = words[:, layout.starts[c0]:layout.starts[c1]].reshape(-1, c1 - c0, 3)
            _slots(chunk[c0:c1], t, slots)
            slots[..., 2] |= layout.ends[c0:c1]
        for c, table in layout.pairs.items():
            # take, not [], reads a boolean index as 0 and 1
            words[:, layout.starts[c]:layout.starts[c + 1]] = table.take(chunk[c], axis=0)
        for fh, (_, first, end, flip, cut) in zip(files, layout.cuts):
            # the file's rows as rows of the chunk
            a, b = (min(max(r - start - lo, 0), hi - lo) for r in (cut.start, cut.stop))
            if a < b:
                part = words[a:b, first:end]
                part[:, -1] ^= flip
                fh.write(part.tobytes().translate(None, b"\0"))
    return nrows
