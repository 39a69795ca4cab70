"""End-to-end acceptance suite.

Each test checks one criterion of the reference experiment at its stated
tolerance and prints a single PASS/FAIL line directly to the terminal.
"""

import numpy as np
import pytest

from holoplane.cli import compute_metrics, run_rates, run_sweep
from holoplane.config import ExperimentConfig
from holoplane.errors import (
    ExceptionalDirectionError,
    OutOfHalfspaceError,
    UndefinedDenominatorError,
)
from holoplane.fields import (
    PointSource,
    RadiationField,
    WaveParams,
    far_field,
    far_field_numeric_oracle,
)
from holoplane.geometry import GridSpec, make_frame, point_on_plane
from holoplane.metrics import rel_l2, slope_estimate
from holoplane.recon import (
    SqrtScaled,
    beta_solve,
    determinant,
    determinant_phase_expansion,
    reconstruct_grid,
    zeta_bounded,
    zeta_sqrt,
)

E1 = np.array([1.0, 0.0, 0.0])


def report(capsys, number, name, failures):
    status = "FAIL" if failures else "PASS"
    line = f"acceptance {number:2d} {status}  {name}"
    if failures:
        line += "  [" + "; ".join(failures) + "]"
    with capsys.disabled():
        print(line)
    assert not failures, "; ".join(failures)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def preset_metrics(preset_run):
    cfg, result = preset_run
    metrics = compute_metrics(cfg, [result])
    e, e_dis = ({name: metrics[metric, name] for name in ("G", "D", "G\\D")}
                for metric in ("E", "E_dis"))
    return e, e_dis, result


def test_criterion_01_reference_error_levels(preset_metrics, capsys):
    e, _, _ = preset_metrics
    failures = []
    e_g, e_d, e_gd = e["G"], e["D"], e["G\\D"]
    check(failures, abs(e_g - 0.117) <= 0.015, f"E(G)={e_g:.4f} not 0.117±0.015")
    check(failures, abs(e_d - 0.297) <= 0.040, f"E(D)={e_d:.4f} not 0.297±0.040")
    check(failures, abs(e_gd - 0.102) <= 0.015, f"E(G|D)={e_gd:.4f} not 0.102±0.015")
    report(capsys, 1, "reference-grid error levels on G, D, G\\D", failures)


def test_criterion_02_parameter_sweeps(capsys, tmp_path):
    cfg = ExperimentConfig()
    failures = []

    s_rows = run_sweep(cfg, "s", [5, 10, 100, 200], str(tmp_path))
    s_expect = [0.25, 0.16, 0.117, 0.108]
    for (val, err), ref in zip(s_rows, s_expect):
        check(
            failures,
            abs(err - ref) <= 0.025,
            f"s={val}: E={err:.4f} not {ref}±0.025",
        )
    s_errs = [err for _, err in s_rows]
    check(failures, all(a > b for a, b in zip(s_errs, s_errs[1:])),
          "s-sweep errors not strictly decreasing")

    k_rows = run_sweep(cfg, "kappa", [1, 4, 16], str(tmp_path))
    for (val, err), ref in zip(k_rows, [0.098, 0.117, 0.130]):
        check(
            failures,
            abs(err - ref) <= 0.02,
            f"kappa={val}: E={err:.4f} not {ref}±0.02",
        )

    c_rows = run_sweep(cfg, "c", [0.1, 1, 10, 20], str(tmp_path))
    c_errs = [err for _, err in c_rows]
    for (val, err) in c_rows:
        check(
            failures,
            0.097 <= err <= 0.138,
            f"c={val}: E={err:.4f} outside [0.097, 0.138]",
        )
    check(
        failures,
        max(c_errs) - min(c_errs) <= 0.01,
        f"c-sweep spread {max(c_errs) - min(c_errs):.4f} > 0.01",
    )

    x_rows = run_sweep(cfg, "x0_2", [0, 2.5, 5], str(tmp_path))
    check(
        failures,
        x_rows[0][1] <= 0.005,
        f"x0_2=0: E={x_rows[0][1]:.5f} > 0.005",
    )
    check(
        failures,
        abs(x_rows[1][1] - 0.117) <= 0.015,
        f"x0_2=2.5: E={x_rows[1][1]:.4f} not 0.117±0.015",
    )
    check(
        failures,
        abs(x_rows[2][1] - 0.222) <= 0.03,
        f"x0_2=5: E={x_rows[2][1]:.4f} not 0.222±0.03",
    )
    report(capsys, 2, "parameter sweeps (s, kappa, c, x0_2)", failures)


def test_criterion_03_intensity_discrepancy(preset_metrics, capsys):
    e, e_dis, _ = preset_metrics
    failures = []
    for region, ref in (("G", 7.2e-3), ("D", 6.7e-3), ("G\\D", 7.2e-3)):
        val = e_dis[region]
        check(
            failures,
            ref / 2 <= val <= ref * 2,
            f"E_dis({region})={val:.2e} not within 2x of {ref:.1e}",
        )
    check(failures, e_dis["G"] < 0.02, f"E_dis(G)={e_dis['G']:.2e} >= 0.02")
    check(failures, e["G"] > 0.09, f"E(G)={e['G']:.4f} <= 0.09")
    report(
        capsys,
        3,
        "intensity discrepancy small while field error stays large",
        failures,
    )


def test_criterion_04_max_offset(preset_metrics, capsys):
    _, _, result = preset_metrics
    failures = []
    check(
        failures,
        result.max_zeta < 15.0,
        f"max |zeta| = {result.max_zeta:.3f} >= 15",
    )
    report(capsys, 4, "offset magnitudes bounded on the grid", failures)


def test_criterion_05_offset_strategy_exactness(capsys):
    rng = np.random.default_rng(2024)
    frame = make_frame(E1, 100.0)
    p = WaveParams(kappa=4.0, k=np.array([4.0, 0.0, 0.0]))
    failures = []

    worst_phase = 0.0
    n_done = 0
    while n_done < 1000:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[0] < 0.05:
            continue
        par = v - v[0] * frame.omega
        if np.linalg.norm(p.kappa * par) < 0.1:
            continue
        alpha = rng.uniform(-2.0, -0.05)
        zeta = zeta_bounded(v, p, frame, alpha, 0.1)
        worst_phase = max(worst_phase, abs(np.dot(p.k - p.kappa * v, zeta) - alpha))
        n_done += 1
    check(
        failures,
        worst_phase <= 1e-10,
        f"bounded-offset phase error {worst_phase:.1e} > 1e-10",
    )

    worst_resid = 0.0
    bound_ok = True
    for _ in range(1000):
        alpha = -rng.uniform(0.05, 2.0)
        kappa = rng.uniform(0.5, 8.0)
        r = rng.uniform(10.0, 1e4)
        tpar = np.array([0.0, rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)])
        kpar = np.array([0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
        ang = rng.uniform(0, 2 * np.pi)
        zhat = np.array([0.0, np.cos(ang), np.sin(ang)])
        beta = beta_solve(alpha, kappa, r, tpar, kpar, zhat)
        mn = np.linalg.norm(kpar - kappa * tpar)
        t2 = np.dot(tpar, zhat) ** 2
        worst_resid = max(
            worst_resid,
            abs(beta * mn + (kappa / (2 * r)) * beta**2 * (t2 - 1) - alpha),
        )
        if abs(beta) > np.sqrt(2 * alpha * r / (kappa * (t2 - 1))) + 1e-9:
            bound_ok = False
    check(
        failures,
        worst_resid <= 1e-10,
        f"sqrt-offset quadratic residual {worst_resid:.1e} > 1e-10",
    )
    check(failures, bound_ok, "sqrt-offset magnitude bound violated")
    report(capsys, 5, "offset strategies hit their phase targets exactly", failures)


def test_criterion_06_determinant_properties(capsys):
    rng = np.random.default_rng(99)
    p = WaveParams(kappa=4.0, k=np.array([4.0, 0.0, 0.0]))
    failures = []

    n = 100_000
    x = rng.uniform(10, 500, size=(n, 1)) * _random_units(rng, n)
    zeta = rng.uniform(-8, 8, size=(n, 3))
    phase = (
        zeta @ p.k
        + p.kappa * (np.linalg.norm(x, axis=1) - np.linalg.norm(x + zeta, axis=1))
    )
    D = 2j * np.sin(phase)
    check(failures, float(np.max(np.abs(D))) <= 2.0 + 1e-15, "|D| exceeded 2")
    check(failures, float(np.max(np.abs(D.real))) <= 1e-12, "Re(D) not ~0")
    # spot-check the vectorized identity against the library function
    for i in range(0, n, n // 20):
        assert determinant(x[i], zeta[i], p) == pytest.approx(complex(D[i]))

    frame = make_frame(E1, 100.0)
    zeta_s = zeta_sqrt(E1, p, frame, -0.5, 100.0)
    xs = 100.0 * E1
    arg = np.dot(p.k, zeta_s) + p.kappa * (
        np.linalg.norm(xs) - np.linalg.norm(xs + zeta_s)
    )
    check(
        failures,
        abs(arg - (-0.5)) <= 3.0 / np.sqrt(100.0),
        f"singular-direction phase {arg:.4f} not within 0.3 of -0.5",
    )
    report(capsys, 6, "determinant bounded, imaginary, phase-calibrated", failures)


def _random_units(rng, n, dim=3):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_07_phase_expansion_accuracy(capsys):
    rng = np.random.default_rng(123)
    p = WaveParams(kappa=4.0, k=np.array([4.0, 0.0, 0.0]))
    failures = []
    worst_excess = 0.0
    for _ in range(10_000):
        r = rng.uniform(20, 1000)
        x = r * _random_units(rng, 1)[0]
        zeta = _random_units(rng, 1)[0] * rng.uniform(0, 0.1) * r
        exact = np.dot(p.k, zeta) + p.kappa * (
            np.linalg.norm(x) - np.linalg.norm(x + zeta)
        )
        model = determinant_phase_expansion(x, zeta, p)
        bound = 2 * p.kappa * np.linalg.norm(zeta) ** 3 / r**2
        worst_excess = max(worst_excess, abs(exact - model) - bound)
    check(
        failures,
        worst_excess <= 1e-12,
        f"phase-model error exceeded the cubic bound by {worst_excess:.1e}",
    )
    report(capsys, 7, "second-order phase model within its cubic bound", failures)


def test_criterion_08_far_field_oracle_order(capsys):
    failures = []
    for dim, x0 in ((3, (0.0, 2.5, 0.0)), (2, (0.0, 2.5))):
        field = RadiationField(dim, (PointSource(1.0 + 0j, np.array(x0)),))
        theta = np.zeros(dim)
        theta[0] = 1.0
        exact = far_field(field, 4.0, theta)
        rows = [
            (r, abs(far_field_numeric_oracle(field, 4.0, theta, r) - exact))
            for r in (1e3, 1e4, 1e5)
        ]
        slope = slope_estimate(rows)
        check(
            failures,
            slope <= -0.9,
            f"d={dim} far-field quotient slope {slope:.3f} > -0.9",
        )
    report(capsys, 8, "finite-radius far-field quotient converges at 1/r", failures)


def test_criterion_09_convergence_rates(capsys, tmp_path):
    failures = []
    cfg3 = ExperimentConfig()
    table3 = run_rates(cfg3, str(tmp_path / "d3"))
    s_sqrt3 = table3["sqrt"][1]
    s_bnd3 = table3["bounded"][1]
    check(
        failures,
        -0.8 <= s_sqrt3 <= -0.2,
        f"d=3 sqrt-offset slope {s_sqrt3:.3f} not -0.5±0.3",
    )
    check(
        failures,
        -1.3 <= s_bnd3 <= -0.7,
        f"d=3 bounded-offset slope {s_bnd3:.3f} not -1±0.3",
    )

    cfg2 = ExperimentConfig(
        dim=2,
        k=(4.0, 0.0),
        omega=(1.0, 0.0),
        sources=((3.0 + 0j, (0.0, 0.5)),),
    )
    table2 = run_rates(cfg2, str(tmp_path / "d2"))
    s_sqrt2 = table2["sqrt"][1]
    s_base2 = table2["bounded"][1]
    s_ref2 = table2["bounded_refined"][1]
    check(
        failures,
        -0.8 <= s_sqrt2 <= -0.2,
        f"d=2 sqrt-offset slope {s_sqrt2:.3f} not -0.5±0.3",
    )
    check(
        failures,
        -0.8 <= s_base2 <= -0.2,
        f"d=2 baseline slope {s_base2:.3f} not -0.5±0.3",
    )
    check(
        failures,
        -1.3 <= s_ref2 <= -0.7,
        f"d=2 refined slope {s_ref2:.3f} not -1±0.3",
    )
    base_last = table2["bounded"][0][-1][1]
    ref_last = table2["bounded_refined"][0][-1][1]
    check(
        failures,
        ref_last < base_last,
        f"refined error {ref_last:.2e} not below baseline {base_last:.2e} at s=800",
    )
    report(capsys, 9, "estimator convergence orders over the s-ladder", failures)


def test_criterion_10_degenerate_inputs(capsys):
    p = WaveParams(kappa=4.0, k=np.array([4.0, 0.0, 0.0]))
    frame = make_frame(E1, 100.0)
    failures = []

    field0 = RadiationField(3, (PointSource(0.0 + 0j, np.array([0.0, 2.5, 0.0])),))
    spec = GridSpec(frame=frame, half_width=20.0, n=10)
    res = reconstruct_grid(field0, p, spec, SqrtScaled(alpha=-0.5))
    check(
        failures,
        bool(np.all(res.f11 == 0) and np.all(res.psi1_rec == 0)),
        "zero field did not reconstruct to zero",
    )

    try:
        rel_l2(res.psi1_rec, np.zeros_like(res.psi1_rec))
        check(failures, False, "zero-reference error metric did not raise")
    except UndefinedDenominatorError:
        pass

    try:
        point_on_plane(np.array([0.0, 1.0, 0.0]), frame)
        check(failures, False, "tangent direction accepted")
    except OutOfHalfspaceError:
        pass

    try:
        zeta_bounded(E1, p, frame, -0.5, 0.1)
        check(failures, False, "bounded offset accepted an exceptional direction")
    except ExceptionalDirectionError:
        pass

    report(capsys, 10, "degenerate inputs rejected or nulled cleanly", failures)
