"""Unit tests for the PAO confidence machinery (repro.learn.pao)."""

import math

from repro.learn.pao import (
    commit_warranted,
    confidence_radius,
    detection_threshold,
    paired_radius,
    recertify_radius,
    recertify_warranted,
    swap_warranted,
)


class TestConfidenceRadius:
    def test_unobserved_arm_is_vacuous(self):
        assert confidence_radius(0.0, 10, 100.0, 0.05, 3) == math.inf

    def test_zero_span_means_zero_radius(self):
        assert confidence_radius(5.0, 10, 0.0, 0.05, 3) == 0.0

    def test_shrinks_with_pulls(self):
        wide = confidence_radius(2.0, 10, 100.0, 0.05, 3)
        narrow = confidence_radius(20.0, 10, 100.0, 0.05, 3)
        assert 0.0 < narrow < wide

    def test_grows_with_rounds_and_arms(self):
        base = confidence_radius(5.0, 10, 100.0, 0.05, 3)
        later = confidence_radius(5.0, 1000, 100.0, 0.05, 3)
        wider_union = confidence_radius(5.0, 10, 100.0, 0.05, 30)
        assert later > base
        assert wider_union > base

    def test_scales_linearly_with_span(self):
        one = confidence_radius(5.0, 10, 1.0, 0.05, 3)
        hundred = confidence_radius(5.0, 10, 100.0, 0.05, 3)
        assert hundred == 100.0 * one


class TestPairedRadius:
    def test_needs_two_effective_observations(self):
        assert paired_radius(4.0, 1.9, 0.05, 3) == math.inf
        assert paired_radius(4.0, 2.0, 0.05, 3) < math.inf

    def test_zero_variance_gives_zero_radius(self):
        assert paired_radius(0.0, 10.0, 0.05, 3) == 0.0
        # A tiny negative variance (float noise) is clamped, not sqrt'd.
        assert paired_radius(-1e-12, 10.0, 0.05, 3) == 0.0

    def test_shrinks_with_weight_grows_with_variance(self):
        base = paired_radius(4.0, 10.0, 0.05, 3)
        assert paired_radius(4.0, 40.0, 0.05, 3) == base / 2.0
        assert paired_radius(16.0, 10.0, 0.05, 3) == base * 2.0


class TestRecertifyRadius:
    def test_two_sample_hoeffding_half_width(self):
        value = recertify_radius(201.0, 4000, 4000)
        expected = 201.0 * math.sqrt(math.log(2.0 / 0.05) / 2.0 * (2.0 / 4000))
        assert value == expected
        assert round(value, 1) == 6.1

    def test_shrinks_with_either_history(self):
        base = recertify_radius(100.0, 1000, 1000)
        assert recertify_radius(100.0, 4000, 1000) < base
        assert recertify_radius(100.0, 1000, 4000) < base
        assert recertify_radius(100.0, 4000, 1000) == recertify_radius(
            100.0, 1000, 4000
        )

    def test_scales_linearly_with_span(self):
        assert recertify_radius(0.0, 100, 100) == 0.0
        one = recertify_radius(1.0, 500, 800)
        assert recertify_radius(50.0, 500, 800) == 50.0 * one

    def test_warranted_inside_the_radius_either_way(self):
        assert recertify_warranted(100.0, 106.0, 6.1)
        assert recertify_warranted(100.0, 94.0, 6.1)
        assert recertify_warranted(100.0, 100.0, 0.0)
        assert not recertify_warranted(150.725, 200.0, 6.1)
        assert not recertify_warranted(100.0, 93.8, 6.1)


class TestDetectionThreshold:
    def test_needs_two_effective_observations(self):
        assert detection_threshold(1.0, 1.0, 0.05) == math.inf

    def test_one_shot_bound_ignores_arm_count(self):
        # Unlike paired_radius there is no union over arms: same inputs,
        # same threshold, regardless of how many orders exist.
        value = detection_threshold(1.0, 50.0, 0.05)
        assert value == math.sqrt(2.0 * math.log(1.0 / 0.05) / 50.0)


class TestDecisions:
    def test_swap_requires_strict_separation(self):
        assert swap_warranted(9.0, 10.0)
        assert not swap_warranted(10.0, 10.0)
        assert not swap_warranted(11.0, 10.0)

    def test_commit_needs_every_challenger_cleared(self):
        assert commit_warranted(10.0, [10.0, 12.0])
        assert not commit_warranted(10.0, [9.9, 12.0])

    def test_commit_vacuous_with_no_challengers(self):
        assert commit_warranted(123.0, [])

    def test_infinite_radius_blocks_both_decisions(self):
        # An unpulled arm has UCB=+inf and LCB=-inf: it can never be
        # provably worse than the incumbent, and the incumbent can never
        # be committed past it.
        assert not swap_warranted(math.inf, 10.0)
        assert not commit_warranted(10.0, [-math.inf])
