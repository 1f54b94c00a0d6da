"""Tests for the randomized cost-model verification sweeps."""

import pytest

from ace_hpo.validate import (
    ClosedFormSweepReport,
    EndpointSweepReport,
    closed_form_equivalence_sweep,
    endpoint_optimality_sweep,
)


class TestEndpointSweep:
    def test_small_sweep_passes(self):
        report = endpoint_optimality_sweep(cases=500, seed=7)
        assert report.passed
        assert report.cases == 500
        assert report.endpoint_failures == 0
        assert report.chooser_mismatches == 0
        # Drawn ratios essentially never land inside the 1e-6 band.
        assert report.chooser_checked + report.near_threshold_skips == 500
        assert report.max_relative_gap < 1e-9

    def test_same_seed_reproduces_report(self):
        a = endpoint_optimality_sweep(cases=200, seed=3)
        b = endpoint_optimality_sweep(cases=200, seed=3)
        assert a == b

    def test_brute_force_minimum_is_an_endpoint_exactly(self):
        # The scan evaluates the same expression the endpoint check does,
        # so when the argmin is an endpoint the gap is exactly zero.
        report = endpoint_optimality_sweep(cases=200, seed=1)
        assert report.max_relative_gap == 0.0

    def test_rejects_nonpositive_cases(self):
        with pytest.raises(ValueError):
            endpoint_optimality_sweep(cases=0)

    def test_report_passed_reflects_counts(self):
        report = EndpointSweepReport(
            cases=10,
            endpoint_failures=1,
            chooser_checked=9,
            chooser_mismatches=0,
            near_threshold_skips=1,
            max_relative_gap=0.5,
        )
        assert not report.passed


class TestClosedFormSweep:
    def test_small_sweep_passes(self):
        report = closed_form_equivalence_sweep(cases=500, seed=11)
        assert report.passed
        assert report.failures == 0
        assert report.max_relative_difference <= 1e-9

    def test_includes_p_equal_one_cases(self):
        # Case 49 (0-indexed) pins p = 1; a 50-case sweep must not crash on it.
        report = closed_form_equivalence_sweep(cases=50, seed=0)
        assert report.passed

    def test_same_seed_reproduces_report(self):
        a = closed_form_equivalence_sweep(cases=100, seed=5)
        b = closed_form_equivalence_sweep(cases=100, seed=5)
        assert a == b

    def test_rejects_nonpositive_cases(self):
        with pytest.raises(ValueError):
            closed_form_equivalence_sweep(cases=-1)

    def test_report_passed_reflects_counts(self):
        report = ClosedFormSweepReport(cases=5, failures=2, max_relative_difference=0.1)
        assert not report.passed
