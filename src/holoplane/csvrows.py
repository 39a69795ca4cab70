"""CSV writer and grid-node columns shared by the per-node exporters.

`write_csv` takes named columns. It converts them to Python scalars a chunk
of rows at a time and formats each row by one `%` template: integer and
boolean columns as `%d`, float columns as `%.10g`. `%`-formatting a float
gives the same bytes as an f-string with the same spec, so the files match a
per-row f-string writer byte for byte.
"""

import numpy as np

from .geometry import grid_coords

# Rows per chunk: large enough to amortise the per-chunk numpy calls, small
# enough that the chunk's Python objects do not raise the peak memory.
ROW_CHUNK = 256


def grid_columns(spec):
    """Node index and in-plane coordinate columns of a per-node CSV, by
    name, in row-major grid order (d=3: i,j,x2,x3; d=2: i,x2)."""
    uv = grid_coords(spec)
    idx = np.arange(spec.size)
    if spec.frame.dim == 3:
        i, j = np.divmod(idx, spec.n)
        return {"i": i, "j": j, "x2": uv[:, 0], "x3": uv[:, 1]}
    return {"i": idx, "x2": uv[:, 0]}


def write_csv(path, columns):
    """Write `columns`, a dict from header name to equal-length 1-d array,
    as CSV with a header line."""
    arrays = list(columns.values())
    template = ",".join("%d" if a.dtype.kind in "biu" else "%.10g"
                        for a in arrays) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), ROW_CHUNK):
            chunk = [a[start:start + ROW_CHUNK].tolist() for a in arrays]
            fh.write("".join([template % row for row in zip(*chunk)]))
