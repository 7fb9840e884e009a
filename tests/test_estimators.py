import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from errest.core import FStatistics, TallyState
from errest.estimators import (
    EstimatorOutput,
    InsufficientDataError,
    Moments,
    chao92,
    coverage,
    cv2,
    extrapolate,
    majority,
    nominal,
    vchao92,
    vchao92_columns,
)
from errest.switch import d_switch


from helpers import chao_form_oracle, vchao92_oracle


def tally_of(pos, neg):
    return TallyState(np.array(pos, dtype=np.int64), np.array(neg, dtype=np.int64))


def random_fingerprint(rng, max_mult=6, max_classes=20):
    freq = {}
    for j in range(1, max_mult + 1):
        fj = int(rng.integers(0, max_classes))
        if fj:
            freq[j] = fj
    n = sum(j * fj for j, fj in freq.items())
    return FStatistics(freq=freq, n=n)


class TestDescriptive:
    def test_nominal_direct(self):
        assert nominal(tally_of([1, 0, 0], [1, 2, 0])) == 1

    def test_nominal_all_zero(self):
        assert nominal(tally_of([0, 0], [0, 0])) == 0

    def test_majority_tie_is_clean(self):
        assert majority(tally_of([2, 1], [1, 1])) == 1

    def test_majority_empty_item(self):
        assert majority(tally_of([0], [0])) == 0

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pos = rng.integers(0, 5, size=8)
            neg = rng.integers(0, 5, size=8)
            t = tally_of(pos, neg)
            assert nominal(t) == sum(1 for p in pos if p > 0)
            assert majority(t) == sum(1 for p, q in zip(pos, neg) if p > q)


class TestExtrapolate:
    def test_one_percent_sample(self):
        assert extrapolate(0.01, 4) == (400.0, 396.0)

    def test_full_sample(self):
        assert extrapolate(1.0, 7) == (7.0, 0.0)

    def test_zero_errors(self):
        assert extrapolate(0.05, 0) == (0.0, 0.0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_domain(self, fraction):
        with pytest.raises(ValueError):
            extrapolate(fraction, 1)


class TestCoverage:
    def test_worked_example(self):
        f = FStatistics(freq={1: 30, 2: 9, 3: 44}, n=180)
        assert coverage(f) == pytest.approx(5 / 6, rel=1e-12)

    def test_no_singletons(self):
        assert coverage(FStatistics(freq={2: 5}, n=10)) == 1.0

    def test_empty_sample(self):
        assert coverage(FStatistics(freq={}, n=0)) == 1.0


class TestCv2:
    def test_flat_fingerprint(self):
        assert cv2(FStatistics(freq={1: 2, 2: 1}, n=4), 6.0) == 0.0

    def test_singletons_only(self):
        assert cv2(FStatistics(freq={1: 4}, n=4), 2.0) == 0.0

    def test_single_tripleton(self):
        assert cv2(FStatistics(freq={3: 1}, n=3), 1.0) == 0.0

    def test_small_sample_returns_zero(self):
        assert cv2(FStatistics(freq={1: 1}, n=1), 5.0) == 0.0


class TestChao92:
    def test_worked_example_one(self):
        f = FStatistics(freq={1: 30, 2: 9, 3: 44}, n=180)
        out = chao92(f)
        assert out.cv2_hat == 0.0
        assert out.total_errors_hat == pytest.approx(99.6, rel=1e-9)
        assert out.remaining_hat == pytest.approx(16.6, rel=1e-9)

    def test_worked_example_two(self):
        f = FStatistics(freq={1: 46, 2: 6, 3: 50}, n=208)
        out = chao92(f)
        assert out.cv2_hat == 0.0
        assert out.total_errors_hat == pytest.approx(21216 / 162, rel=1e-9)

    def test_full_coverage_returns_observed(self):
        f = FStatistics(freq={2: 4, 3: 1}, n=11)
        assert chao92(f).total_errors_hat == pytest.approx(5.0)

    def test_empty_sample(self):
        out = chao92(FStatistics(freq={}, n=0))
        assert out.total_errors_hat == 0.0 and out.coverage_hat == 1.0

    def test_zero_coverage_capped_at_universe(self):
        f = FStatistics(freq={1: 3}, n=3)
        out = chao92(f, universe=50)
        assert out.total_errors_hat == 50.0
        assert out.coverage_hat == 0.0

    def test_zero_coverage_without_universe_is_infinite(self):
        out = chao92(FStatistics(freq={1: 3}, n=3))
        assert math.isinf(out.total_errors_hat)
        assert out.coverage_hat == 0.0

    def test_never_below_observed(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            f = random_fingerprint(rng)
            if f.n == 0:
                continue
            out = chao92(f, universe=10_000)
            assert out.total_errors_hat >= f.c - 1e-9
            assert 0.0 <= out.coverage_hat <= 1.0
            assert out.cv2_hat >= 0.0


class TestVChao92:
    def test_shifted_derived_example(self):
        t = tally_of([3, 2, 0, 0, 0], [0, 0, 1, 0, 0])  # c_majority = 2
        f = FStatistics(freq={1: 4, 2: 2, 3: 1}, n=11)
        out = vchao92(f, majority(t), shift=1)
        assert out.total_errors_hat == pytest.approx(2.8, rel=1e-9)
        assert out.coverage_hat == pytest.approx(5 / 7, rel=1e-12)

    def test_shift_zero_equals_chao92_when_counts_agree(self):
        # every marked item also holds a strict majority
        t = tally_of([2, 1, 0], [0, 0, 0])
        f = FStatistics(freq={1: 1, 2: 1}, n=3)
        assert vchao92(f, majority(t), shift=0).total_errors_hat == pytest.approx(
            chao92(f).total_errors_hat
        )

    def test_vanishing_shifted_singletons(self):
        t = tally_of([1, 1, 1], [0, 0, 0])
        f = FStatistics(freq={1: 2, 3: 1}, n=5)  # f_2 = 0
        assert vchao92(f, majority(t), shift=1).total_errors_hat == pytest.approx(3.0)

    def test_exhausted_sample_raises(self):
        t = tally_of([1], [0])
        f = FStatistics(freq={1: 2}, n=2)
        with pytest.raises(InsufficientDataError):
            vchao92(f, majority(t), shift=1)

    def test_shift_past_largest_multiplicity_is_constant(self):
        t = tally_of([3, 2, 0, 0, 0], [0, 0, 1, 0, 0])
        f = FStatistics(freq={1: 4, 2: 2, 3: 1}, n=11)
        assert vchao92(f, majority(t), shift=10**12) == vchao92(f, majority(t), shift=3)

    def test_negative_shift_rejected(self):
        t = tally_of([1], [0])
        f = FStatistics(freq={1: 1}, n=1)
        with pytest.raises(ValueError):
            vchao92(f, majority(t), shift=-1)

    def test_shift_monotonicity_probe(self):
        """Probe: is the estimate non-increasing in the shift?

        Not a theorem, and the probe does find real counterexamples --
        a monotone fingerprint can still have f_{2}/n^{+,1} exceed
        f_1/n^+ (e.g. f=(10,9)), which raises the shifted estimate.
        Every violation is re-verified against direct hand arithmetic
        of the shifted coverage form so implementation bugs cannot hide
        behind "expected" counterexamples.
        """
        rng = np.random.default_rng(21)
        violations = 0
        for _ in range(300):
            sizes = sorted(
                (int(rng.integers(1, 12)) for _ in range(int(rng.integers(2, 5)))),
                reverse=True,
            )
            freq = {j + 1: fj for j, fj in enumerate(sizes)}
            f = FStatistics(
                freq=freq,
                n=sum(j * fj for j, fj in freq.items()),
            )
            c_maj = int(rng.integers(0, f.c + 1))
            t = tally_of([1] * c_maj + [0] * 3, [0] * c_maj + [0] * 3)
            outs = []
            for s in (0, 1, 2):
                try:
                    out = vchao92(f, majority(t), shift=s, universe=10_000)
                except InsufficientDataError:
                    out = None
                outs.append(out)
            for s in (1, 2):
                if outs[s] is None or outs[s - 1] is None:
                    continue
                if outs[s].cv2_hat != 0.0 or outs[s - 1].cv2_hat != 0.0:
                    continue
                if outs[s].total_errors_hat > outs[s - 1].total_errors_hat + 1e-9:
                    violations += 1
                    # re-verify against the bare shifted coverage form
                    n_s = f.n - sum(f.f(i) for i in range(1, s + 1))
                    f1s = f.f(1 + s)
                    expected = c_maj / (1 - f1s / n_s)
                    assert outs[s].total_errors_hat == pytest.approx(expected, rel=1e-9)
        # documented counterexample family exists, so the probe must see some
        assert violations > 0


class TestColumns:
    """The column kernel against the scalar estimators, entry by entry and exactly."""

    # n = 0; n = 1; all singletons (zero coverage); no sample left after a shift of 1
    # (f = {1: 2}); skew coverage clamped to zero (f1 > n); and regular fingerprints.
    FINGERPRINTS = [
        FStatistics({}, 0),
        FStatistics({}, 1),
        FStatistics({2: 1}, 1),
        FStatistics({1: 4}, 4),
        FStatistics({1: 2}, 2),
        FStatistics({1: 5}, 3),
        FStatistics({1: 3, 2: 1}, 5),
        FStatistics({1: 30, 2: 9, 3: 44}, 180),
        FStatistics({1: 4, 2: 2, 3: 1}, 11),
        FStatistics({2: 4, 3: 1}, 11),
    ]

    @staticmethod
    def column(values):
        return np.array(values, dtype=np.int64)

    def moments(self, fs=FINGERPRINTS):
        return Moments(*(self.column([getattr(f, k) for f in fs]) for k in Moments._fields))

    @staticmethod
    def row(est, k):
        return EstimatorOutput(*(float(x[k]) for x in est))

    def test_coverage_and_cv2(self):
        m = self.moments()
        for k, f in enumerate(self.FINGERPRINTS):
            assert coverage(m)[k] == coverage(f)
            assert cv2(m, 2.5)[k] == cv2(f, 2.5)

    @pytest.mark.parametrize("universe", [None, 50])
    def test_chao92(self, universe):
        est = chao92(self.moments(), universe)
        assert (est.coverage_hat == 0).any() and (est.coverage_hat > 0).any()
        for k, f in enumerate(self.FINGERPRINTS):
            assert self.row(est, k) == chao92(f, universe=universe)

    @pytest.mark.parametrize("universe", [None, 50])
    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_vchao92(self, universe, shift):
        fs = self.FINGERPRINTS
        c_majority = self.column([min(f.c, 2) for f in fs])
        f_next = self.column([f.f(shift + 1) for f in fs])
        n_low = self.column([sum(f.f(j) for j in range(1, shift + 1)) for f in fs])
        est, insufficient = vchao92_columns(self.moments(), c_majority, f_next, n_low, universe)
        assert insufficient[0] and insufficient[4] == (shift > 0)  # n = 0; f = {1: 2}
        for k, f in enumerate(fs):
            if insufficient[k]:
                with pytest.raises(InsufficientDataError):
                    vchao92(f, int(c_majority[k]), shift=shift, universe=universe)
            else:
                assert self.row(est, k) == vchao92(f, int(c_majority[k]), shift, universe)

    def test_one_output_type(self):
        covered, singletons = FStatistics({1: 30, 2: 9, 3: 44}, 180), FStatistics({1: 4}, 4)
        m = self.moments([covered, singletons])
        columns = [chao92(m, 50), d_switch(m, 50),
                   vchao92_columns(m, m.c, m.f1, self.column([0, 0]), 50)[0]]
        assert all(type(est) is EstimatorOutput for est in columns)
        for f, low in ((covered, False), (singletons, True)):
            for out in (chao92(f, 50), d_switch(f, 50), vchao92(f, f.c, shift=0, universe=50)):
                assert type(out) is EstimatorOutput
                assert all(type(x) is float for x in out)  # no 0-d array leaks out
                assert (out.coverage_hat == 0.0) == low

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 8), st.integers(0, 12), max_size=6),
        st.integers(-3, 3),
        st.sampled_from([None, 0, 40]),
        st.integers(0, 4),
        st.data(),
    )
    def test_scalar_estimators_equal_scalar_oracle(self, freq, n_offset, universe, shift, data):
        # n is sum(j f_j) for discovery statistics; switch statistics supply their own n
        n = max(sum(j * fj for j, fj in freq.items()) + n_offset, 0)
        f = FStatistics(freq, n)
        assert chao92(f, universe=universe) == chao_form_oracle(f.c, f, f, universe)
        c_majority = data.draw(st.integers(0, f.c))
        want = vchao92_oracle(f, c_majority, shift, universe)
        if want is None:
            with pytest.raises(InsufficientDataError):
                vchao92(f, c_majority, shift=shift, universe=universe)
        else:
            assert vchao92(f, c_majority, shift=shift, universe=universe) == want
