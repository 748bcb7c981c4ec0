"""Order-of-vanishing bounds: flagship values, monotonicity, assumption notes."""

import importlib.util
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from splitmoments import vanishing as vb
from splitmoments.errors import DomainError
from splitmoments.testfn import fejer
from write_ledger import LEDGER


class TestFlagshipValues:
    def test_r5_bound(self):
        q = vb.VanishingQuery(r=5, n=4, sigma=F(1, 2), sign="minus")
        assert vb.vanishing_bound(q) == F(496, 65625)

    def test_r5_threshold(self):
        assert vb.vanishing_threshold(fejer(F(1, 2)), 5) == F(5, 2)

    def test_beats_prior_bounds(self):
        b = vb.vanishing_bound(vb.VanishingQuery(r=5, n=4, sigma=F(1, 2), sign="minus"))
        assert b < vb.PRIOR_BOUNDS["prior-second-moment"] < vb.PRIOR_BOUNDS["prior-one-level"]
        assert vb.PRIOR_BOUNDS["prior-second-moment"] == F(1, 49)
        assert vb.PRIOR_BOUNDS["prior-one-level"] == F(1, 32)

    def test_n2_bound_is_worse(self):
        b4 = vb.vanishing_bound(vb.VanishingQuery(r=5, n=4, sigma=F(1, 2), sign="minus"))
        b2 = vb.vanishing_bound(vb.VanishingQuery(r=5, n=2, sigma=F(1, 2), sign="minus"))
        from splitmoments import moments as mo

        tf = fejer(F(1, 2))
        expected = (F(1, 3) - mo.S_correction(tf, 2, 1)) * F(2, 5) ** 2
        assert b2 == expected
        assert b2 > b4


# the r = 19 (n = 20, sigma = 1/10, minus) result in full, from the exact
# ledger; the bound is also bench/workloads.R19_BOUND
R19 = json.loads(LEDGER.read_text())["r19"]


@pytest.mark.slow
class TestR19:
    def test_r19_three_sig_figs(self):
        q = vb.VanishingQuery(r=19, n=20, sigma=F(1, 10), sign="minus")
        b = vb.vanishing_bound(q)
        assert F(280, 100) / 10**15 <= b <= F(292, 100) / 10**15
        assert f"{float(b):.3g}" == "2.86e-15"

    def test_r19_exact(self):
        res = vb.vanishing_result(vb.VanishingQuery(r=19, n=20, sigma=F(1, 10), sign="minus"))
        got = {"bound": str(res.bound), "threshold": str(res.threshold),
               "moment": str(res.moment)}
        assert got == R19

    def test_r19_bound_is_the_benchmark_constant(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert workloads.R19_BOUND == R19["bound"]


class TestValidation:
    def test_odd_n_rejected(self):
        with pytest.raises(DomainError):
            vb.VanishingQuery(r=5, n=3, sigma=F(1, 2), sign="minus")

    def test_nonpositive_threshold(self):
        # r = 2 with sigma = 1/2: threshold 2 - 2 - 1/2 < 0
        q = vb.VanishingQuery(r=2, n=4, sigma=F(1, 2), sign="minus")
        with pytest.raises(DomainError, match="not positive"):
            vb.vanishing_bound(q)

    def test_sigma_cap(self):
        with pytest.raises(DomainError):
            vb.VanishingQuery(r=5, n=4, sigma=F(3, 5), sign="minus")

    def test_float_sigma_rejected(self):
        with pytest.raises(TypeError, match="floats are rejected"):
            vb.VanishingQuery(r=5, n=4, sigma=0.3, sign="minus")

    def test_exact_sigma_forms_accepted(self):
        for sigma in (F(3, 10), "3/10"):
            assert vb.VanishingQuery(r=5, n=4, sigma=sigma, sign="minus").sigma == F(3, 10)

    def test_unknown_sign_rejected_at_construction(self):
        with pytest.raises(DomainError, match="sign"):
            vb.VanishingQuery(r=5, n=4, sigma=F(1, 2), sign="sideways")


class TestMonotonicity:
    def test_decreasing_in_r(self):
        prev = None
        for r in range(5, 12):
            b = vb.vanishing_bound(vb.VanishingQuery(r=r, n=4, sigma=F(1, 2), sign="minus"))
            if prev is not None:
                assert b < prev
            prev = b


class TestSweep:
    def test_positive_sign_flagged(self):
        q = vb.VanishingQuery(r=5, n=4, sigma=F(1, 2), sign="plus")
        notes = vb.assumptions_for(q)
        assert any("positive-sign" in s for s in notes)
        b = vb.vanishing_bound(q)
        assert b > 0
