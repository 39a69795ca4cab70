"""Output checks for one benchmark job.

The checks read only the files a job wrote and recompute the exact field
with their own code (closed form in d=3, scipy's Hankel function in d=2),
so a change to the package cannot move the reference it is checked against.
"""

import os

import numpy as np

from inputs import BOX_HALF_WIDTH, HALF_WIDTH, KAPPA, PLANE_S

RECON_HEADER = {
    3: "i,j,x2,x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
       "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD",
    2: "i,x2,re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
       "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD",
}
PROFILE_HEADER = {3: "x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec",
                  2: "x2,re_psi1,im_psi1,re_psi1rec,im_psi1rec"}
HOLOGRAM_HEADER = {3: "i,j,x2,x3,I", 2: "i,x2,I"}
REGIONS = ("G", "D", "G\\D")
RATE_ROWS = 5  # one per s on the rates ladder

# CSV values carry 10 significant digits and H0 is accurate to 1e-7
# absolute, so 1e-5 of the field's peak separates rounding from a wrong value.
PSI_RTOL = 1e-6
PSI_ATOL_SHARE = 1e-5
# metrics.csv prints 6 significant digits.
PRINTED_RTOL = 1e-5


class CheckError(Exception):
    """A job's output is missing, malformed or wrong."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _read_table(path, header, ncols):
    try:
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
            _require(first == header, f"{path}: header {first!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from None
    _require(data.shape[1] == ncols, f"{path}: {data.shape[1]} columns")
    return data


def grid_uv(inputs):
    """In-plane node coordinates, row-major, shape (nodes, d-1)."""
    c = np.linspace(-HALF_WIDTH, HALF_WIDTH, inputs.workload.n)
    if inputs.workload.dim == 2:
        return c[:, None]
    u, v = np.meshgrid(c, c, indexing="ij")
    return np.stack([u.ravel(), v.ravel()], axis=-1)


def exact_psi1(inputs, uv):
    """Point-source superposition at the plane nodes s*e1 + (0, uv)."""
    pts = np.hstack([np.full((len(uv), 1), PLANE_S), uv])
    total = np.zeros(len(uv), dtype=complex)
    for c, x0 in inputs.sources:
        r = np.linalg.norm(pts - np.array(x0), axis=1)
        if inputs.workload.dim == 3:
            total += c * np.exp(1j * KAPPA * r) / r
        else:
            from scipy.special import hankel1

            total += c * hankel1(0, KAPPA * r)
    return total


def _rel_err(rec, exact, mask):
    return float(np.linalg.norm((rec - exact)[mask]) / np.linalg.norm(exact[mask]))


def check_recon(inputs, outdir):
    """Check recon.csv, profile.csv and metrics.csv; return the accuracy of
    the reconstruction, counting a non-finite node as psi1_rec = 0."""
    d, n = inputs.workload.dim, inputs.workload.n
    nodes = inputs.workload.nodes
    names = RECON_HEADER[d].split(",")
    data = _read_table(os.path.join(outdir, "recon.csv"), RECON_HEADER[d], len(names))
    _require(len(data) == nodes, f"recon.csv: {len(data)} rows, expected {nodes}")
    col = dict(zip(names, data.T))
    idx = np.arange(nodes)
    if d == 3:
        _require(np.array_equal(col["i"], idx // n)
                 and np.array_equal(col["j"], idx % n), "recon.csv: bad i,j")
    else:
        _require(np.array_equal(col["i"], idx), "recon.csv: bad i")
    uv = grid_uv(inputs)
    coords = np.stack([col[f"x{a + 2}"] for a in range(d - 1)], axis=-1)
    _require(np.allclose(coords, uv, rtol=1e-9, atol=1e-12),
             "recon.csv: node coordinates off the grid")
    exact = exact_psi1(inputs, uv)
    got = col["re_psi1"] + 1j * col["im_psi1"]
    atol = PSI_ATOL_SHARE * np.abs(exact).max()
    _require(np.allclose(got, exact, rtol=PSI_RTOL, atol=atol),
             "recon.csv: psi1 columns differ from the exact field")
    rec = col["re_psi1rec"] + 1j * col["im_psi1rec"]
    finite = np.isfinite(rec)
    rec = np.where(finite, rec, 0)

    box = np.all(np.abs(uv) < BOX_HALF_WIDTH, axis=1)
    acc = {
        "rel_err_G": _rel_err(rec, exact, np.ones(nodes, dtype=bool)),
        "rel_err_D": _rel_err(rec, exact, box),
        "valid_node_frac": float(finite.mean()),
    }

    profile = _read_table(os.path.join(outdir, "profile.csv"), PROFILE_HEADER[d], 5)
    _require(len(profile) == n, f"profile.csv: {len(profile)} rows, expected {n}")

    printed = _read_metrics(os.path.join(outdir, "metrics.csv"))
    e_g = printed[("E", "G")]
    if finite.all():
        _require(abs(e_g - acc["rel_err_G"]) <= PRINTED_RTOL * acc["rel_err_G"],
                 f"metrics.csv: E(G) = {e_g!r}, recomputed {acc['rel_err_G']!r}")
    else:
        # The package does not exclude non-finite nodes, so E(G) is nan.
        _require(np.isnan(e_g), f"metrics.csv: E(G) = {e_g!r} with NaN nodes")
    return acc


def _read_metrics(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckError(f"{path}: {exc}") from None
    _require(lines[:1] == ["metric,region,value"], f"{path}: bad header")
    values = {}
    for line in lines[1:]:
        parts = line.split(",")
        _require(len(parts) == 3, f"{path}: bad row {line!r}")
        try:
            values[(parts[0], parts[1])] = float(parts[2])
        except ValueError:
            raise CheckError(f"{path}: bad value in {line!r}") from None
    expected = {(m, r) for m in ("E", "E_dis") for r in REGIONS}
    _require(set(values) == expected and len(lines) == 1 + len(expected),
             f"{path}: rows {sorted(values)}")
    return values


def check_hologram(inputs, outdir):
    """Check hologram.csv and hologram.pgm as written by `simulate`."""
    d, n = inputs.workload.dim, inputs.workload.n
    data = _read_table(os.path.join(outdir, "hologram.csv"), HOLOGRAM_HEADER[d],
                       len(HOLOGRAM_HEADER[d].split(",")))
    _require(len(data) == inputs.workload.nodes, "hologram.csv: wrong row count")
    _require(np.all(data[:, -1] >= 0), "hologram.csv: negative intensity")
    width, height = (n, n) if d == 3 else (n, 1)
    head = f"P5\n{width} {height}\n255\n".encode("ascii")
    with open(os.path.join(outdir, "hologram.pgm"), "rb") as fh:
        pgm = fh.read()
    _require(pgm.startswith(head) and len(pgm) == len(head) + width * height,
             "hologram.pgm: bad header or size")


def check_rates(inputs, outdir):
    """Check rates.csv: RATE_ROWS finite positive errors per strategy."""
    strategies = ["sqrt", "bounded"] + (["bounded_refined"]
                                        if inputs.workload.dim == 2 else [])
    path = os.path.join(outdir, "rates.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines[:1] == ["strategy,s,error"], f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == 3 for r in rows), f"{path}: bad row")
    _require([r[0] for r in rows] == [s for s in strategies for _ in range(RATE_ROWS)],
             f"{path}: strategies {[r[0] for r in rows]}")
    try:
        errors = np.array([float(r[2]) for r in rows])
    except ValueError:
        raise CheckError(f"{path}: bad error value") from None
    _require(np.all(np.isfinite(errors) & (errors > 0)), f"{path}: bad errors")


def check_job(inputs, outdir):
    """Check every file the job's commands wrote; return the accuracy
    of its reconstruction."""
    commands = inputs.workload.commands
    if "simulate" in commands:
        check_hologram(inputs, outdir)
    if "rates" in commands:
        check_rates(inputs, outdir)
    return check_recon(inputs, outdir)
