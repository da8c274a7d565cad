"""Shape assertions over the experiment drivers (tiny scales).

These tests pin the *qualitative* reproduction targets: who wins, by
roughly what factor, and where the trends point -- the properties the
paper's tables and figures exist to show.
"""

import math

import pytest

from repro.experiments import (
    DEFAULT_THRESHOLDS,
    format_fig2,
    format_fig3,
    format_fig8,
    format_fig9,
    format_fig10,
    format_table1,
    format_table2,
    run_fig2,
    run_fig3_family,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table1,
    run_table2,
)
from repro.workloads.synth import (
    PAPER_TABLE1,
    protomata_like,
    snort_like,
    suricata_like,
)


@pytest.fixture(scope="module")
def fig9_result():
    return run_fig9(scale=0.08)


class TestTable1:
    def test_fractions_track_paper(self):
        result = run_table1(scale=0.12)
        assert len(result.rows) == 5
        for row in result.rows:
            assert row.ambiguous <= row.counting <= row.supported <= row.total
            paper = PAPER_TABLE1[row.name]
            assert row.supported / row.total == pytest.approx(
                paper["supported"] / paper["total"], abs=0.06
            )
            assert row.counting / row.supported == pytest.approx(
                paper["counting"] / paper["supported"], abs=0.06
            )
        assert "Table 1" in format_table1(result)


class TestTable2:
    def test_no_performance_penalty(self):
        result = run_table2()
        assert result.no_performance_penalty
        assert result.clock_period_ps == 325
        assert "Table 2" in format_table2(result)


class TestFig2:
    def test_variants_and_shapes(self):
        suites = [snort_like(total=40), protomata_like(total=25)]
        result = run_fig2(suites=suites)
        assert ("Snort", "E") in result.points
        assert ("Protomata", "HW") in result.points
        # every counting rule produced a point in every variant
        for variant in ("E", "A", "H", "HW"):
            assert len(result.series("Snort", variant)) == len(
                result.series("Snort", "E")
            )
        assert "Figure 2" in format_fig2(result)
        assert "pairs" in format_fig2(result, metric="pairs")

    def test_hybrid_never_much_worse_than_exact(self):
        # on the ambiguous rules hybrid pays a small aborted
        # approximation probe on top of the exact fallback
        suites = [snort_like(total=40), suricata_like(total=40)]
        result = run_fig2(suites=suites)
        for suite in ("Snort", "Suricata"):
            exact_pairs = sum(p.pairs for p in result.series(suite, "E"))
            hybrid_pairs = sum(p.pairs for p in result.series(suite, "H"))
            assert hybrid_pairs <= exact_pairs * 1.25, suite


class TestFig3:
    def test_family_speedup_grows_with_bound(self):
        result = run_fig3_family(bounds=(40, 80, 160))
        speedups = [p.speedup for p in result.points]
        assert speedups[-1] > speedups[0] > 1
        assert result.max_speedup() > 3
        # quadratic vs linear pair counts
        first, last = result.points[0], result.points[-1]
        assert last.exact_pairs / first.exact_pairs > 10
        assert last.hybrid_pairs / first.hybrid_pairs < 6
        assert "Figure 3" in format_fig3(result)


class TestFig8:
    def test_unfolding_loses_on_energy_everywhere(self):
        result = run_fig8((8, 64, 512, 2000))
        for point in result.counter_series + result.bit_vector_series:
            assert point.energy_ratio > 1
        # area: the counter's fixed 237 um^2 crosses the unfold line
        # around n ~ 15 (visible in the paper's bottom-left sub-figure);
        # above that the module always wins
        for point in result.counter_series:
            if point.n >= 64:
                assert point.area_ratio > 1
        for point in result.bit_vector_series:
            assert point.area_ratio > 1  # constant ~4.8x
        # counter advantage grows with n (paper: orders of magnitude)
        ratios = [p.energy_ratio for p in result.counter_series]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 100
        assert "Figure 8" in format_fig8(result)

    def test_dynamic_validation_agrees(self):
        from repro.experiments import validate_point

        # n must exceed one CAM array (256 STEs) for the unfolded
        # variant to pay more at mapped whole-array granularity
        point = validate_point(600, ambiguous=False)
        assert point.reports_agree
        assert point.module_nj_per_byte < point.unfold_nj_per_byte


class TestFig9:
    def test_node_counts_monotone_in_threshold(self, fig9_result):
        for suite, points in fig9_result.series.items():
            nodes = [p.nodes for p in points]
            assert nodes == sorted(nodes), suite
            assert nodes[0] > 0, suite

    def test_large_bound_suites_reduce_most(self, fig9_result):
        r = fig9_result
        assert r.reduction("Snort") > r.reduction("SpamAssassin")
        assert r.reduction("Suricata") > r.reduction("SpamAssassin")

    def test_unfold_all_has_no_modules(self, fig9_result):
        for points in fig9_result.series.values():
            last = points[-1]
            assert last.threshold == math.inf
            assert last.counters == 0 and last.bit_vectors == 0
        assert "Figure 9" in format_fig9(fig9_result)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self, fig9_result):
        return run_fig10(
            scale=0.08, stream_len=512, prepped=fig9_result.prepped
        )

    def test_reports_invariant_across_thresholds(self, result):
        for suite, points in result.series.items():
            reports = {p.reports for p in points}
            assert len(reports) == 1, suite

    def test_ids_suites_win_big(self, result):
        """The headline: large-bound suites see big energy cuts."""
        assert result.energy_reduction("Snort") > 0.4
        assert result.energy_reduction("Suricata") > 0.4
        # the abstract's area claim
        assert result.area_reduction("Snort") > 0.2

    def test_small_bound_suites_modest(self, result):
        """Protomata/SpamAssassin: less reduction than the IDS suites."""
        ids_best = min(
            result.energy_reduction("Snort"), result.energy_reduction("Suricata")
        )
        assert result.energy_reduction("SpamAssassin") <= ids_best

    def test_waste_only_with_bit_vectors(self, result):
        for points in result.series.values():
            for p in points:
                if p.bv_modules == 0:
                    assert p.waste_mm2 == 0
        assert "Figure 10" in format_fig10(result)
