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
    ("src/holoplane/recon.py", '"flag_smallD": abs_d <= DET_FLOOR',
     '"flag_smallD": abs_d < DET_FLOOR', "<= to < at DET_FLOOR in the grid's flag"),
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
    ("src/holoplane/metrics.py", '("G\\\\D", self.axis.all())',
     '("G\\\\D", not self.axis.all())',
     "G\\D emptiness test inverted in compute_metrics (metrics.Scores)"),
    ("src/holoplane/metrics.py", "np.fmax(self.max_zeta, record.max_zeta)",
     "np.maximum(self.max_zeta, record.max_zeta)",
     "maximum for fmax in Scores' max |zeta| fold: the initial NaN wins"),
    ("src/holoplane/metrics.py", "b.intensity - 1.0)", "np.abs(b.psi1) ** 2 - 1.0)",
     "|psi1|^2 for the true intensity in the E_dis reference of metrics.discrepancy"),
    ("src/holoplane/metrics.py", "/ np.sum(x * x))", "/ np.mean(x * x))",
     "mean for sum in the denominator of slope_estimate's closed form"),
    ("src/holoplane/cli.py",
     "        metrics = scores.ratios()\n"
     "        for name in STAGED[:2]:\n"
     "            os.replace(stage + name, os.path.join(outdir, name))\n",
     "        for name in STAGED[:2]:\n"
     "            os.replace(stage + name, os.path.join(outdir, name))\n"
     "        metrics = scores.ratios()\n",
     "os.replace before the metric ratios: a failing run leaves its files"),
    ("src/holoplane/csvrows.py", "count = max(1, round(nrows / step))",
     "count = max(1, -(-nrows // step))", "ceil for round in the chunk rule"),
    ("src/holoplane/cli.py", "slice(row * spec.n - first, (row + 1) * spec.n - first)",
     "slice(row * spec.n + 1 - first, (row + 1) * spec.n + 1 - first)",
     "profile row offset off by one"),
    ("src/holoplane/csvrows.py", "part[:, -1] ^= flip", "part[:, -1] ^= 0",
     "no `\\n` rewrite of an excerpt's last delimiter"),
    ("src/holoplane/csvrows.py", "ends[c1 - 1] ^ ends[-1], excerpt[2])",
     "ends[c1 - 1] ^ ends[-1], slice(excerpt[2].start + 1, excerpt[2].stop + 1))",
     "excerpt rows off by one"),
    ("src/holoplane/bessel.py", "    u = w * w\n", "    u = w\n",
     "1 / z for 1 / z^2 as the variable of the asymptotic Horner rule"),
    ("src/holoplane/bessel.py", "s.imag = im * w", "s.imag = im",
     "odd asymptotic part not multiplied by 1 / z"),
    ("src/holoplane/bessel.py", "zip(_EVEN, _ODD)", "zip(_EVEN[1:], _ODD[1:])",
     "Horner rule started one coefficient short: the last two terms dropped"),
    ("src/holoplane/bessel.py", "_ODD = _COEF.imag[1::2][::-1]", "_ODD = _COEF.imag[1::2]",
     "odd asymptotic coefficients in ascending order for Horner's rule"),
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
    ("src/holoplane/cli.py", "_write_profile(spec, profile_path, blocks[0].start)",
     "_write_profile(spec, profile_path, max(0, blocks[0].start - 1))",
     "the split's child excerpt rows off by one"),
    ("src/holoplane/cli.py", "offset, size = len(src.readline()),",
     "offset, size = 0 * len(src.readline()),",
     "the split's part file appended with its header line"),
    ("src/holoplane/cli.py", "scores.merge(_forked(", "(_forked(",
     "the split's child Scores never merged: the metrics cover the first half alone"),
    ("src/holoplane/cli.py", "os.kill(pid, signal.SIGKILL)", "pass",
     "the fork helper's child not killed when this process's half fails: the "
     "failure waits for the child's half"),
    ("src/holoplane/cli.py", "if status != 0:", "if False:",
     "the fork helper's child exit status unchecked: a child that sent no result "
     "fails on the missing result file"),
    ("src/holoplane/cli.py", "        raise result\n", "        return result\n",
     "the fork helper returns the child's exception as its value"),
    ("src/holoplane/recon.py", "(params.k @ frame.omega) * frame.omega",
     "params.k[0] * frame.omega",
     "k's normal component read off its first axis in recon._mismatch: right only "
     "for omega = e1"),
    ("src/holoplane/recon.py", "sing[..., None], frame.basis[0],",
     "sing[..., None], np.eye(len(frame.omega))[1],",
     "the second ambient axis for the frame's first basis vector on the sqrt "
     "offset's singular direction: right only for omega = e1"),
    ("src/holoplane/recon.py", "* r ** (-half) * f11_vals", "* r ** (-1.0) * f11_vals",
     "the d = 3 decay 1 / |x| for |x|^(-(d-1)/2) in psi1_rec: wrong only in d = 2"),
    ("src/holoplane/metrics.py", "self.blocks += other.blocks",
     "self.blocks[:0] = other.blocks",
     "the split's child block sums merged before this process's: other's blocks put "
     "first in Scores.merge"),
    ("src/holoplane/geometry.py", "return v / n", "return v * n",
     "geometry._as_unit multiplies by the norm: a near-unit omega is kept off 1"),
    ("src/holoplane/config.py", "if len(parts) < 3:", "if len(parts) <= 3:",
     "<= for < in the source arity rule: a 3-number source gets the arity error"),
    ("src/holoplane/cli.py", 'known = {cfg: metrics[("E", "G")]}',
     'known = {cfg: metrics[("E", "D")]}',
     "reproduce-paper's config map seeded with the base run's E(D) for its E(G)"),
    ("src/holoplane/cli.py", "TRIM_THRESHOLD = 8 << 20", "TRIM_THRESHOLD = 0",
     "heap trim threshold 0: every free hands the heap top back to the kernel"),
    ("src/holoplane/cli.py", "        for name in STAGED:\n", "        for name in STAGED[:-1]:\n",
     "the staged names' clean-up skips the split child's result.pickle"),
    ("src/holoplane/cli.py", "        for name in STAGED:\n",
     "        for name in STAGED[:1] + STAGED[2:]:\n",
     "a failed run keeps its staged profile.csv: the clean-up skips it"),
    ("src/holoplane/cli.py", '["metric,region,value", *lines]', "lines",
     "metrics.csv written without its header line"),
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
