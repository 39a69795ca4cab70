"""Row writer and grid-node columns shared by the CSV exporters.

Columns are converted to Python scalars a chunk of rows at a time and each
row is formatted by one `%` template. `"%.10g" % x` gives the same bytes as
`f"{x:.10g}"`, so the files match a per-row f-string writer byte for byte.
"""

import numpy as np

from .geometry import grid_coords

# Rows per chunk: large enough to amortise the per-chunk numpy calls, small
# enough that the chunk's Python objects do not raise the peak memory.
ROW_CHUNK = 256


def grid_columns(spec):
    """Node index and in-plane coordinate columns of a per-node CSV, in
    row-major grid order (d=3: i,j,x2,x3; d=2: i,x2), as (header prefix,
    `%` template prefix, list of arrays); callers append their own."""
    uv = grid_coords(spec)
    idx = np.arange(spec.size)
    if spec.frame.dim == 3:
        i, j = np.divmod(idx, spec.n)
        return "i,j,x2,x3,", "%d,%d,%.10g,%.10g,", [i, j, uv[:, 0], uv[:, 1]]
    return "i,x2,", "%d,%.10g,", [idx, uv[:, 0]]


def write_rows(fh, template, columns):
    """Write `template % row` for each row of `columns`, a sequence of
    equal-length 1-d arrays; `template` ends with the newline."""
    n = len(columns[0])
    for start in range(0, n, ROW_CHUNK):
        chunk = [c[start:start + ROW_CHUNK].tolist() for c in columns]
        fh.write("".join([template % row for row in zip(*chunk)]))
