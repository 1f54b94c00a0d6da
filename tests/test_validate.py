"""Tests for the randomized cost-model verification sweeps."""

import pytest

from ace_hpo.validate import (
    ClosedFormSweepReport,
    EndpointSweepReport,
    closed_form_equivalence_sweep,
    endpoint_optimality_sweep,
)


class TestEndpointSweep:
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
