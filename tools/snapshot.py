"""Record every output of the holoplane CLI on a fixed set of configs.

    python3 tools/snapshot.py SRC OUT

runs `python -m holoplane.cli` with PYTHONPATH=SRC (the directory that
holds the `holoplane` package) on each config of `CONFIGS`, with the
commands `simulate`, `reconstruct` and `rates`; then `reproduce-paper` at
n = 16 on three configs, one `sweep` per parameter of the reference
experiment, and one `sweep` on a grid with every node in D. Each run gets
its own directory OUT/<case>/<command>/ holding the config text
(`config.txt`), the files the command wrote (under `out/`), and its
`stdout`, `stderr` and `exit` code.

To check that a change leaves every output byte alone, snapshot the old
and the new sources and compare the two trees:

    python3 tools/snapshot.py old/src /tmp/snap-old
    python3 tools/snapshot.py src /tmp/snap-new
    diff -r /tmp/snap-old /tmp/snap-new

Last-bit float output is specific to a platform's numpy and libm, so a
snapshot is compared only with one taken on the same machine.
"""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import WORKLOADS, make_inputs  # noqa: E402

CONFIGS = {
    **{f"{name}-seed{seed}": make_inputs(WORKLOADS[name], seed).text
       for name in WORKLOADS for seed in (0, 57)},
    "default-3d": "",
    "default-2d": "dim = 2\n",
    "2d-offaxis-n16": "dim = 2\nsource = 3, 0, 0, 0.5\nn = 16\n",
    "bounded-alpha0.7": "strategy = bounded\nalpha = 0.7\n",
    "2d-hybrid-two-sources": ("dim = 2\nstrategy = hybrid\n"
                              "source = 1, 0, 0, 2.5\nsource = 0.5, 0.5, 1, -1\n"),
    "tilted-k": "k = 3.2, 2.4, 0\n",
    "bilinear-noise-hybrid-n37": ("mode = bilinear\nnoise_level = 0.02\n"
                                  "strategy = hybrid\nn = 37\n"),
    "2d-bounded-refine-n401": ("dim = 2\nstrategy = bounded\nrefine2d = true\n"
                               "alpha = 0.7\nn = 401\n"),
    "s30-kappa1": "s = 30\nkappa = 1\n",
    "bounded-eps1-3d": "strategy = bounded\neps = 1\n",
    "bounded-eps1-2d": "dim = 2\nstrategy = bounded\neps = 1\n",
    "tilted-omega-bilinear-n41": "omega = 0.8, 0.6, 0\nmode = bilinear\nn = 41\n",
    "tilted-omega-noise-n41": ("omega = 0.8, 0.6, 0\nmode = bilinear\nn = 41\n"
                               "noise_level = 0.01\n"),
    "2d-noise-n301": "dim = 2\nnoise_level = 0.01\nn = 301\n",
    # The sampled path over three node blocks: noise-free in d=3, noisy in d=2.
    "bilinear-n101": "mode = bilinear\nn = 101\n",
    "2d-noise-n9001": "dim = 2\nnoise_level = 0.01\nn = 9001\n",
    # d=2 over three node blocks: the profile excerpt spans block bounds.
    "2d-n9001": "dim = 2\nn = 9001\n",
    "2d-tilted-bilinear-hybrid-n501": ("dim = 2\nomega = 0.6, 0.8\nmode = bilinear\n"
                                       "strategy = hybrid\nn = 501\n"),
    # Coordinates whose texts fill three slot words, e.g. -0.0009327846365.
    "fine-h-n37-3d": "h = 0.000987654321\nn = 37\nregion_halfwidth = 0.0005\n",
    "fine-h-n37-2d": "dim = 2\nh = 0.000987654321\nn = 37\nregion_halfwidth = 0.0005\n",
    # Near field in d=2, where H0 sums its ascending series (kappa |x - x0|
    # <= Z_SWITCH): at every node, at the nodes on one side of Z_SWITCH,
    # and in a sampled run.
    "2d-series-n9001": ("dim = 2\nkappa = 0.5\ns = 10\nh = 8\nn = 9001\n"
                        "source = 1, 0, 0, 0.5\n"),
    "2d-series-switch-n9001": "dim = 2\nkappa = 1\ns = 16\nn = 9001\n",
    "2d-series-bilinear-noise-n501": ("dim = 2\nkappa = 1\ns = 6\nh = 5\nn = 501\n"
                                      "mode = bilinear\nnoise_level = 0.01\n"),
    # d=2 with H0's arguments from about 600 to 4e6, so a term-table block of
    # bessel._asymptotic spans decades of z: its odd cut's bound is taken at
    # the block's largest z, its terms at the smallest.
    "2d-wide-z-n9000": "dim = 2\nh = 1e6\nn = 9000\nregion_halfwidth = 1000\n",
    # reconstruct splits a grid of cli.SPLIT_MIN_BLOCKS node blocks or more
    # over two processes. In d=2 the profile is the whole line, so it
    # crosses the cut: 4 blocks, and 5 with noise (the last block 1 node).
    "2d-split-n16384": "dim = 2\nn = 16384\n",
    "2d-split-noise-n16385": "dim = 2\nnoise_level = 0.01\nn = 16385\n",
    # A zero field: reconstruct and rates fail, simulate runs.
    "zero-source-3d": "source = 0, 0, 0, 2.5, 0\n",
    "zero-source-2d": "dim = 2\nsource = 0, 0, 0, 0.5\n",
    # Failing runs: an empty error region, and a source on a grid node, in
    # the only node block or in the second one, after the first block's
    # rows are written, or in either half of a split run.
    "empty-D-n2": "n = 2\n",
    "empty-D-box0.1": "region_halfwidth = 0.1\n",
    "empty-GminusD-box50": "region_halfwidth = 50\n",
    "source-on-node-n3": "n = 3\nsource = 1, 0, 100, 0, 0\n",
    "source-on-node-n101": "n = 101\nsource = 1, 0, 100, 0, 0\n",
    # A split run (5 blocks, cut at node 8192) whose source lies on node
    # 10384, in the second process's half, or on node 2644, in the first's.
    "source-on-node-split-second-half": "n = 129\nh = 64\nsource = 1, 0, 100, 16, 0\n",
    "source-on-node-split-first-half": "n = 129\nh = 64\nsource = 1, 0, 100, -44, 0\n",
}

SMALL = "n = 16\n"
# (case, config text, CLI arguments after the global options)
RUNS = [
    *[(case, text, [command]) for case, text in CONFIGS.items()
      for command in ("simulate", "reconstruct", "rates")],
    ("reproduce-n16", SMALL, ["reproduce-paper"]),
    # reproduce-paper reconstructs each distinct config once. Here no sweep
    # value gives the base config, so all 15 runs are made; ...
    ("reproduce-n16-base-in-no-sweep",
     f"{SMALL}s = 60\nkappa = 3\nsource = 0.5, 0, 0, 1, 0\n", ["reproduce-paper"]),
    # ... and here with_kappa(4) moves the last bit of k, so kappa = 4 runs
    # apart from the base config.
    ("reproduce-n16-tilted-k", f"{SMALL}k = 2, 3.4641016151377544, 0\n", ["reproduce-paper"]),
    ("sweep-s-n16", SMALL, ["sweep", "--param", "s", "--values", "5,10,100,200"]),
    ("sweep-kappa-n16", SMALL, ["sweep", "--param", "kappa", "--values", "1,4,16"]),
    ("sweep-x0_2-n16", SMALL, ["sweep", "--param", "x0_2", "--values", "0,2.5,5"]),
    ("sweep-c-n16", SMALL, ["sweep", "--param", "c", "--values", "0.1,1,10,20"]),
    # G\D is empty: sweep scores E on G alone, so it runs.
    ("sweep-s-n16-all-in-D", "n = 16\nh = 1\nregion_halfwidth = 4\n",
     ["sweep", "--param", "s", "--values", "100,200"]),
]


def run(src, rundir, text, args):
    rundir.mkdir(parents=True)
    config = rundir / "config.txt"
    config.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "holoplane.cli", "--config", str(config),
         "--out", str(rundir / "out"), *args],
        capture_output=True, env=env)
    (rundir / "stdout").write_bytes(proc.stdout)
    (rundir / "stderr").write_bytes(proc.stderr)
    (rundir / "exit").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv):
    if len(argv) != 2:
        print("usage: snapshot.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "holoplane" / "__init__.py").is_file():
        print(f"error: no holoplane package under {src}", file=sys.stderr)
        return 2
    if out.exists():
        print(f"error: {out} exists", file=sys.stderr)
        return 2
    for case, text, args in RUNS:
        code = run(src, out / case / args[0], text, args)
        print(f"{case} {args[0]}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
