"""Mutation checks: does the tier-1 suite fail on each known wrong edit?

    python3 tools/mutants.py WORKDIR [--grep TEXT] [--tests PATH ...]

copies the repository into WORKDIR/tree, runs the suite once on the
unchanged copy, then applies each mutant of `MUTANTS` in turn (a
`(file, old text, new text, why)` row: the exact `old` text of `file` is
replaced by `new`) and runs the suite again, one pytest process at a time,
with `-x -q`. Tests that already fail on the unchanged copy cannot tell a
mutant apart, so they are deselected, and so is `tests/test_mutants.py`,
which fails on any mutated tree. Each mutant is reported as `killed`,
with the first failing test, or as `survived`; the wall time ends the
report. A mutant whose `why` starts with `equivalent:` cannot change any
output, and is expected to survive.

`--grep TEXT` runs only the mutants whose `why` contains TEXT, and
`--tests PATH ...` runs only those test paths instead of the whole suite,
for instance to show that one test module kills a mutant by itself.
`tests/test_mutants.py` checks that each old text occurs exactly once in
its file, so the table follows the code.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("src/holoplane/bessel.py", "/ np.fmin.reduce(block) **", "/ np.min(block) **",
     "min for fmin in bessel._asymptotic: a NaN argument cuts the series"),
    ("src/holoplane/recon.py", "return 2j * np.sin(zeta @ params.k",
     "return -2j * np.sin(zeta @ params.k", "sign of recon._determinant"),
    ("src/holoplane/recon.py", "return np.exp(1j * ((x @ params.k)",
     "return np.exp(-1j * ((x @ params.k)", "sign of recon._phase_factor's exponent"),
    ("src/holoplane/recon.py", "return f - (e_y - e_x)", "return f + (e_y - e_x)",
     "sign of the self-interference term in recon._refine"),
    ("src/holoplane/recon.py", "2.0 * alpha / (mn + np.sqrt(disc))",
     "2.0 * alpha / (mn - np.sqrt(disc))", "root sign in recon._beta"),
    ("src/holoplane/recon.py", "ok = mn >= eps", "ok = mn > eps",
     ">= to > in recon._bounded_offset: |m| = eps has a bounded offset"),
    ("src/holoplane/recon.py", "flag_small_d=np.abs(D) <= DET_FLOOR",
     "flag_small_d=np.abs(D) < DET_FLOOR", "<= to < at DET_FLOOR in the grid's flag"),
    ("src/holoplane/cli.py", "if np.any(np.abs(D) <= DET_FLOOR):",
     "if np.any(np.abs(D) < DET_FLOOR):", "<= to < at DET_FLOOR in the rates probe"),
    ("src/holoplane/recon.py", "np.fmax.reduce(row_norm(b.zeta))",
     "np.max(row_norm(b.zeta))", "max for fmax in max_zeta: NaN offsets win"),
    ("src/holoplane/csvrows.py", "TIE = 0.5 - 1e-5", "TIE = 0.5",
     "no tie margin in the CSV formatter"),
    ("src/holoplane/csvrows.py", "E_MIN, E_MAX = -290, 300", "E_MIN, E_MAX = -300, 300",
     "equivalent: E_MIN of the CSV formatter past the margin; 10**(9 - e) is inf "
     "below e = -299, which sends the value to `%`"),
    ("src/holoplane/hologram.py", "corner = corner[::-1]", "corner = corner",
     "corner order in hologram.bilinear_lookup"),
    ("src/holoplane/csvrows.py", "words = (max(map(len, texts), default=0) + 8) // 8",
     "words = 3", "pair slots fixed at 3 words"),
    ("src/holoplane/csvrows.py", "words = (max(map(len, texts), default=0) + 8) // 8",
     "words = (max(map(len, texts), default=0) + 7) // 8",
     "no byte for the delimiter in a pair slot"),
    ("src/holoplane/csvrows.py", "return max(1, CHUNK_BYTES // (8 * words))",
     "return max(1, CHUNK_BYTES // (8 * words)) + 1", "one row more per chunk"),
    ("src/holoplane/geometry.py", "self.size)), self.shape)",
     "self.size)), self.shape)[::-1]", "row and column swapped in GridSpec.node_axes"),
    ("src/holoplane/metrics.py", "return np.abs(spec.coords) < b",
     "return np.abs(spec.coords) <= b", "< to <= in the central box"),
    ("src/holoplane/csvrows.py", "template = _template(values)",
     "template = _template(values).replace('10', '9')", "%.10g to %.9g in _pair_slots"),
    ("src/holoplane/metrics.py", '("G\\\\D", not self.axis.all())',
     '("G\\\\D", self.axis.all())',
     "G\\D emptiness test inverted in compute_metrics (metrics.Scores)"),
    ("src/holoplane/metrics.py", "np.fmax(self.max_zeta, max_zeta)",
     "np.maximum(self.max_zeta, max_zeta)",
     "maximum for fmax in Scores' max |zeta| fold: the initial NaN wins"),
    ("src/holoplane/metrics.py", "b.intensity - 1.0)", "np.abs(b.psi1) ** 2 - 1.0)",
     "|psi1|^2 for the true intensity in the E_dis reference of metrics.discrepancy"),
    ("src/holoplane/cli.py",
     "        metrics = scores.ratios()\n"
     "        for path, name in zip(staged, names):\n"
     "            os.replace(path, os.path.join(outdir, name))\n",
     "        for path, name in zip(staged, names):\n"
     "            os.replace(path, os.path.join(outdir, name))\n"
     "        metrics = scores.ratios()\n",
     "os.replace before the metric ratios: a failing run leaves its files"),
    ("src/holoplane/csvrows.py", "count = max(1, round(nrows / step))",
     "count = max(1, -(-nrows // step))", "ceil for round in the chunk rule"),
    ("src/holoplane/cli.py", "return path, names, slice(row * spec.n, (row + 1) * spec.n)",
     "return path, names, slice(row * spec.n + 1, (row + 1) * spec.n + 1)",
     "profile row offset off by one"),
    ("src/holoplane/csvrows.py", "part[:, -1] ^= flip", "part[:, -1] ^= 0",
     "no `\\n` rewrite of an excerpt's last delimiter"),
    ("src/holoplane/csvrows.py", "ends[c1 - 1] ^ ends[-1], excerpt[2])",
     "ends[c1 - 1] ^ ends[-1], slice(excerpt[2].start + 1, excerpt[2].stop + 1))",
     "excerpt rows off by one"),
    ("src/holoplane/bessel.py", "((s.real, terms[0::2]), (s.imag, terms[1::2]))",
     "((s.real, terms[1::2]), (s.imag, terms[0::2]))",
     "even and odd asymptotic terms swapped"),
    ("src/holoplane/bessel.py", "np.add.accumulate(rows, axis=0)[-1]", "rows.sum(axis=0)",
     "pairwise sum(axis=0) for the in-order asymptotic sum"),
    ("src/holoplane/bessel.py", "_BLOCK = 1024", "_BLOCK = 10**6",
     "one asymptotic term table for the whole argument array"),
    ("src/holoplane/bessel.py", "term[done] = 0.0", "pass",
     "stopped series term not zeroed: a stopped element keeps adding its terms"),
    ("src/holoplane/bessel.py",
     "        j0 += term\n"
     "        ysum -= term * harmonic\n"
     "        done = np.abs(term) < 1e-18 * (1.0 + np.abs(j0))\n",
     "        done = np.abs(term) < 1e-18 * (1.0 + np.abs(j0 + term))\n"
     "        term[done] = 0.0\n"
     "        j0 += term\n"
     "        ysum -= term * harmonic\n",
     "series stop rule applied before the term is added: a stopping element "
     "loses its last term"),
    ("src/holoplane/bessel.py", "1e-18 * (1.0 + np.abs(j0))", "1e-19 * (1.0 + np.abs(j0))",
     "1e-19 for 1e-18 in the series stop rule"),
    ("src/holoplane/recon.py", "a[b.start - start:b.stop - start]", "a[b.start:b.stop]",
     "views of a record's node blocks not offset by its first node"),
    ("src/holoplane/recon.py", "psi0 = plane_wave(pts, params)",
     "psi0 = plane_wave(grid_points(spec, slice(0, len(pts))), params)",
     "psi0 of a block taken from the first block's nodes"),
    ("src/holoplane/hologram.py", "u = rng.uniform(-1.0, 1.0, size=b.stop - b.start)",
     "u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=b.stop - b.start)",
     "noise generator re-seeded in each node block of hologram.add_noise"),
    ("src/holoplane/hologram.py", "np.round((vals[b] - lo) * scale)",
     "np.round((vals[b] - vals[b].min()) * (255.0 / np.ptp(vals[b])))",
     "PGM pixels scaled by each node block's own min and max"),
    ("src/holoplane/recon.py", "sing[..., None], frame.basis[0],",
     "sing[..., None], frame.basis[-1],",
     "last in-plane basis vector for the first on the sqrt offset's singular direction"),
    ("src/holoplane/cli.py", "slice(rows.start - first, rows.stop - first)",
     "slice(rows.start - first + 1, rows.stop - first + 1)",
     "the split's child excerpt rows off by one"),
    ("src/holoplane/cli.py", "offset, size = len(src.readline()),",
     "offset, size = 0 * len(src.readline()),",
     "the split's part file appended with its header line"),
    ("src/holoplane/cli.py",
     "        for block_sums, max_zeta in result:\n"
     "            scores.merge(block_sums, max_zeta)\n",
     "        own, scores.sums = scores.sums, {key: np.zeros(2) for key in scores.sums}\n"
     "        for block_sums, max_zeta in result:\n"
     "            scores.merge(block_sums, max_zeta)\n"
     "        scores.merge([own], np.nan)\n",
     "the split's child block sums merged before this process's sums"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.M)
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "out", ".perfbench_out")


def pytest(tree, args):
    """Run pytest in `tree` with the package under `tree/src` first on the
    path; return the exit code and the ids of the failing tests."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(TIER1 + args, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, FAILED.findall(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--grep", default="", help="run the mutants whose why has TEXT")
    parser.add_argument("--tests", nargs="*", default=[], help="test paths to run")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    tree = args.workdir / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(ROOT, tree, ignore=IGNORE)

    code, standing = pytest(tree, args.tests)
    print(f"unchanged tree: exit {code}, deselected: {' '.join(standing) or 'none'}")
    if code not in (0, 1):
        return 2
    deselect = [f"--deselect={test}" for test in standing + ["tests/test_mutants.py"]]
    survived = 0
    for path, old, new, why in MUTANTS:
        if args.grep not in why:
            continue
        source = (tree / path).read_text()
        assert source.count(old) == 1, (path, old)
        (tree / path).write_text(source.replace(old, new))
        try:
            code, failed = pytest(tree, ["-x", *deselect, *args.tests])
        finally:
            (tree / path).write_text(source)
        if code == 0:
            survived += not why.startswith("equivalent:")
            print(f"survived  {why}")
        else:
            print(f"killed    {why}  [{failed[0] if failed else f'exit {code}'}]")
    print(f"{survived} survived unexpectedly; wall time {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
