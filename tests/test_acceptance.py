"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass line (run with ``pytest -s`` to see them).

The ground-truth reproduction reuses the session-wide default report, so the
whole gate stays well inside the five-minute budget.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from volterra.criteria import (DEFAULT_LADDER, VerdictTag, _integrate_cells, _rung_cells,
                               pointwise_compactness, sg_boundedness, sg_pointwise,
                               tg_boundedness, tg_pointwise, tg_tail_compactness)
from volterra.estimation import (compactness_probe, lower_bound_details,
                                 tg_min_upper_bound)
from volterra.operators import OperatorKind, apply_tg, apply_sg
from volterra.sector import (SectorParams, build_sector_map, estimate_density_bound,
                             sector_sample)
from volterra.series import TaylorSeries, cauchy_product
from volterra.spaces import SpacePair
from volterra.symbols import get_symbol

T, S = OperatorKind.Tg, OperatorKind.Sg


def _ok(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def _row(doc, symbol, op, alpha, beta):
    for r in doc["rows"]:
        if (r["symbol"], r["op"], r["alpha"], r["beta"]) == (symbol, op, alpha, beta):
            return r
    raise AssertionError(f"row {symbol}/{op}/({alpha},{beta}) missing from the report")


def test_criterion_01_ground_truth_classification(full_report):
    doc, seconds = full_report
    assert seconds <= 300.0, f"report took {seconds:.0f}s, budget is 5 minutes"

    r = _row(doc, "identity", "Tg", 0, 0)
    assert r["boundedness"]["tag"] == "Bounded"
    assert r["value"] == pytest.approx(1.0, abs=1e-4)
    assert _row(doc, "log", "Tg", 0, 0)["boundedness"]["tag"] == "Unbounded"
    r = _row(doc, "log", "Tg", 0, 1)
    assert (r["boundedness"]["tag"], r["compactness"]["tag"]) == ("Bounded", "Compact")
    assert _row(doc, "koebe3", "Tg", 0, 1)["boundedness"]["tag"] == "Unbounded"
    r = _row(doc, "cayley", "Sg", 0, 1)
    assert r["boundedness"]["tag"] == "Bounded"
    assert r["value"] == pytest.approx(2.0, abs=1e-3)
    assert r["compactness"]["tag"] == "NotCompact"
    assert _row(doc, "affine", "Sg", 1, 0)["boundedness"]["tag"] == "Unbounded"
    assert _row(doc, "affine", "Sg", 1, 1)["boundedness"]["tag"] == "Bounded"
    assert _row(doc, "zero", "Sg", 1, 0)["compactness"]["tag"] == "Compact"
    r = _row(doc, "identity", "Sg", 0, 0)
    assert r["boundedness"]["tag"] == "Bounded"
    assert "unweighted-forwarding" in r["boundedness"]["evidence"]
    assert _row(doc, "identity", "Tg", 0, 0)["compactness"]["tag"] == "Compact"

    assert doc["summary"]["disagreements"] == []
    assert doc["summary"]["inconclusive"] == []
    assert doc["summary"]["matches"] == doc["summary"]["rows"]
    _ok(1, f"report reproduces all {doc['summary']['rows']} ground-truth rows "
           f"in {seconds:.0f}s")


_BLOCH_NOTE = "ladder evidence is one-sided: log g' Bloch membership unknown"
_SG_BLOCH_NOTE = "companion ladder evidence is one-sided: log g Bloch membership unknown"
_FORWARD_NOTE = "unweighted companion verdict forwarded from the T_g criterion"

# (boundedness evidence, compactness evidence, notes) of every ground-truth row;
# all fourteen verdicts are decided, so neither carries a reason
GROUND_TRUTH_EVIDENCE = {
    ("identity", "Tg", 0, 0): (("tg-radial-ladder", "finite-limit", "iff"),
                               ("tg-tail-ladder",), ()),
    ("log", "Tg", 0, 0): (("tg-radial-ladder", "infinite-limit", "iff"),
                          ("compactness-implies-boundedness", "tg-tail-ladder"), ()),
    ("log", "Tg", 0, 1): (("tg-radial-ladder", "vanishing-limit", "iff",
                           "tg-pointwise-sup", "vanishing-limit"),
                          ("tg-tail-ladder", "tg-pointwise-vanishing"), ()),
    ("koebe3", "Tg", 0, 1): (("tg-radial-ladder", "infinite-limit", "iff",
                              "tg-pointwise-sup", "infinite-limit"),
                             ("compactness-implies-boundedness", "tg-tail-ladder",
                              "tg-pointwise-vanishing"), ()),
    ("cayley", "Tg", 0, 1): (("tg-radial-ladder", "finite-limit", "iff",
                              "tg-pointwise-sup", "finite-limit"),
                             ("tg-tail-ladder", "tg-pointwise-vanishing"), ()),
    ("monomial", "Tg", 0, 0): (("tg-radial-ladder", "finite-limit", "sufficient-only"),
                               ("tg-tail-ladder",), (_BLOCH_NOTE,)),
    ("lacunary", "Tg", 0, 0): (("tg-radial-ladder", "finite-limit", "sufficient-only"),
                               ("tg-tail-ladder",), (_BLOCH_NOTE,)),
    ("cayley", "Sg", 0, 1): (("sg-pointwise-sup", "finite-limit"),
                             ("sg-pointwise-vanishing",), ()),
    ("affine", "Sg", 1, 0): (("sg-radial-ladder", "infinite-limit", "iff"),
                             ("compactness-implies-boundedness", "zero-symbol-rule"), ()),
    ("affine", "Sg", 1, 1): (("sg-radial-ladder", "finite-limit", "iff",
                              "sg-pointwise-sup", "finite-limit"),
                             ("sg-pointwise-vanishing",), ()),
    ("zero", "Sg", 1, 0): (("sg-radial-ladder", "identically-zero", "sufficient-only"),
                           ("zero-symbol-rule",), (_SG_BLOCH_NOTE,)),
    ("identity", "Sg", 0, 0): (("tg-radial-ladder", "finite-limit", "iff", "unweighted-forwarding"),
                               ("zero-symbol-rule",), (_FORWARD_NOTE,)),
    ("one", "Sg", 0, 0): (("tg-radial-ladder", "identically-zero", "sufficient-only",
                           "unweighted-forwarding"),
                          ("zero-symbol-rule",), (_FORWARD_NOTE,)),
    ("log", "Sg", 1, 1): (("sg-pointwise-sup", "infinite-limit"),
                          ("compactness-implies-boundedness", "sg-pointwise-vanishing"),
                          (_SG_BLOCH_NOTE,)),
}


def test_ground_truth_evidence_reasons_and_notes_are_pinned(full_report):
    """Which criteria decided each verdict, in order, with their labels: the
    merge order, the necessity labels ("iff", "sufficient-only"), the
    forwarded companion verdict and the notes of every ground-truth row."""
    doc, _ = full_report
    got = {(r["symbol"], r["op"], r["alpha"], r["beta"]):
           (tuple(r["boundedness"]["evidence"]), tuple(r["compactness"]["evidence"]),
            tuple(r["notes"]))
           for r in doc["rows"]}
    assert got == GROUND_TRUTH_EVIDENCE
    for r in doc["rows"]:
        assert r["boundedness"]["reason"] is None and r["compactness"]["reason"] is None
        assert r["cross_check_agreement"] is True


def test_criterion_02_product_rule_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        df, dg = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        f = TaylorSeries(tuple(rng.normal(size=df + 1) + 1j * rng.normal(size=df + 1)))
        g = TaylorSeries(tuple(rng.normal(size=dg + 1) + 1j * rng.normal(size=dg + 1)))
        z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs = apply_tg(g, f)(z) + apply_sg(g, f)(z)
        rhs = cauchy_product(f, g)(z) - f.coeffs[0] * g.coeffs[0]
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    _ok(2, f"product-rule residual < 1e-10 on 100 random triples (worst {worst:.2e})")


def test_criterion_03_coefficient_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        df, dg = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        mags = rng.uniform(0.5, 1.5, size=df + 1)
        f = TaylorSeries(tuple(mags * np.exp(2j * np.pi * rng.uniform(size=df + 1))))
        mags = rng.uniform(0.5, 1.5, size=dg + 1)
        g = TaylorSeries(tuple(mags * np.exp(2j * np.pi * rng.uniform(size=dg + 1))))
        image = apply_tg(g, f)
        for n in range(image.degree + 1):
            want = 0j if n == 0 else sum(
                f.coefficient(k) * (n - k) * g.coefficient(n - k) for k in range(n)) / n
            scale = max(1.0, abs(want), abs(image.coefficient(n)))
            worst = max(worst, abs(image.coefficient(n) - want) / scale)
    assert worst <= 1e-13
    _ok(3, f"direct-summation coefficient oracle matches to {worst:.2e} relative")


def test_criterion_04_full_integral_equivalence():
    # sup_theta int_0^1 |g'(r e^{i theta})| dr in closed form; at alpha = beta = 0
    # the ladder is nondecreasing, so its last reliable rung is that sup
    full = {"identity": 1.0, "monomial": 0.5, "lacunary": 9.0, "one": 0.0, "zero": 0.0}
    ks = DEFAULT_LADDER.rung_ks()
    worst = 0.0
    for name, want in full.items():
        out = tg_boundedness(get_symbol(name), SpacePair(0, 0))
        assert out.verdict.tag is VerdictTag.BOUNDED
        reliable = out.engine.values[ks][out.engine.reliable[ks]]
        worst = max(worst, abs(reliable[-1] - want))
    assert worst <= 1e-4
    _ok(4, f"monotone ladder limit agrees with the closed-form full integrals to {worst:.2e}")


def test_criterion_05_cross_theorem_consistency():
    pairs = [SpacePair(0, 1), SpacePair(1, 1)]
    disagreements = 0
    for name in ("identity", "log", "koebe1", "koebe2", "koebe3", "affine", "cayley"):
        g = get_symbol(name)
        assert g.metadata.log_deriv_bloch is True
        for pair in pairs:
            ladder = tg_boundedness(g, pair).verdict
            pointwise = tg_pointwise(g, pair)
            if ladder.decided and pointwise.decided and ladder.tag is not pointwise.tag:
                disagreements += 1
            tail = tg_tail_compactness(g, pair)
            vanish = pointwise_compactness(g, pair, T)
            if tail.decided and vanish.decided and tail.tag is not vanish.tag:
                disagreements += 1
    for name in ("one", "affine", "cayley"):
        g = get_symbol(name)
        assert g.metadata.log_symbol_bloch is True
        for pair in (SpacePair(1, 1), SpacePair(1, 2)):
            ladder = sg_boundedness(g, pair).verdict
            pointwise = sg_pointwise(g, pair)
            if ladder.decided and pointwise.decided and ladder.tag is not pointwise.tag:
                disagreements += 1
    assert disagreements == 0
    _ok(5, "integral and pointwise criteria agree on every flagged symbol, beta > 0")


def test_criterion_06_norm_sandwich(full_report):
    doc, _ = full_report
    for r in doc["rows"]:
        if r["op"] == "Tg" and r["boundedness"]["tag"] == "Bounded":
            assert r["upper_bound"] is not None
            assert r["lower_bound"] <= r["upper_bound"] + 1e-6, r["symbol"]
    lower = lower_bound_details(get_symbol("identity"), T, SpacePair(0, 0)).value
    upper, _ = tg_min_upper_bound(get_symbol("identity"), SpacePair(0, 0))
    assert lower == pytest.approx(1.0, abs=1e-3)
    assert upper == pytest.approx(1.0, abs=1e-3)
    _ok(6, "lower bound <= split upper bound on every Bounded row; "
           "classical Volterra sandwich pinned at 1.0")


def test_criterion_07_compactness_probes():
    trace = compactness_probe(get_symbol("identity"), T, SpacePair(0, 0), n_max=64)
    for n, v in zip(trace.indices, trace.values):
        assert v == pytest.approx(1.0 / (n + 1), abs=1e-6)
    assert trace.decay_exponent == pytest.approx(-1.0, abs=0.05)
    trace = compactness_probe(get_symbol("one"), S, SpacePair(0, 0), n_max=64)
    for v in trace.values:
        assert v == pytest.approx(1.0, abs=1e-6)
    _ok(7, "probe traces match 1/(n+1) and the constant non-compact trace")


def test_criterion_08_sector_map_validation():
    for gamma, eta in ((math.pi / 4, math.pi / 2), (math.pi / 3, 2 * math.pi / 3)):
        smap = build_sector_map(SectorParams(eta=eta))
        assert smap.center_residual < 1e-10
        assert smap.vertex_solve_residual < 1e-10
        # rotation equivariance of the map over 8 bisector angles
        sample = sector_sample(eta * 0.9, 0.0, 64)
        worst = 0.0
        for j in range(8):
            theta = 2.0 * math.pi * j / 8.0
            m = build_sector_map(SectorParams(eta=eta, theta=theta))
            w = np.exp(1j * theta)
            worst = max(worst, float(np.max(np.abs(
                m.psi(w * sample) - w * smap.psi(sample)))))
        assert worst < 1e-10
        ests = [estimate_density_bound(gamma, eta, n) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert ests[0] <= ests[1] <= ests[2]
        assert all(math.isfinite(e) for e in ests)
        assert ests[2] < 10.0
    _ok(8, "sector maps: residuals < 1e-10, equivariance < 1e-10, "
           "density bounds monotone and finite")


def test_criterion_09_report_determinism(tmp_path):
    args = ["-m", "volterra.cli", "report", "--format", "json",
            "--kmax", "24", "--degree", "64", "--probe-nmax", "16"]
    env_one = dict(os.environ, VOLTERRA_WORKERS="1")
    env_default = dict(os.environ)
    env_default.pop("VOLTERRA_WORKERS", None)
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "default.json"
    r1 = subprocess.run([sys.executable, *args, "--output", str(out1)], env=env_one,
                        capture_output=True)
    r2 = subprocess.run([sys.executable, *args, "--output", str(out2)], env=env_default,
                        capture_output=True)
    assert r1.returncode == r2.returncode == 0, (r1.stderr, r2.stderr)
    assert out1.read_bytes() == out2.read_bytes()
    _ok(9, "report bytes identical for worker counts 1 and default")


def test_criterion_10_quadrature_accuracy():
    # int_0^t |g'(r e^{i theta})| dr at one angle, read through the closed
    # form: the cell integrator over the rung cells clipped at s = 1 - t, with
    # every integrand sample counted
    for name, theta, t, want in (("identity", 1.3, 0.9, 0.9),
                                 ("log", 0.0, 0.99, math.log(100.0)),
                                 ("log", math.pi, 1.0 - 2.0 ** -40, math.log(2.0))):
        deriv, unit, samples = get_symbol(name).deriv, np.exp(1j * theta), []

        def counting(r, s):
            samples.append(np.size(r))
            return np.abs(deriv(r * unit))
        mesh = _integrate_cells(counting, 0.0, _rung_cells(1.0 - t))
        assert float(np.sum(mesh.rows)) == pytest.approx(want, abs=1e-5)
        assert sum(samples) <= 10_000
    _ok(10, "radial quadrature hits all three closed forms within 1e-5 "
            "under the 1e4-evaluation budget")
