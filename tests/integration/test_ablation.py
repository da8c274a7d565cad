"""Shape tests over the ablation drivers (small scales)."""

from repro.experiments.ablation import (
    format_policy_ablation,
    format_strictness_ablation,
    run_policy_ablation,
    run_strictness_ablation,
)
from repro.workloads.synth import protomata_like, snort_like, suricata_like


class TestPolicyAblation:
    def test_both_modules_needed(self):
        result = run_policy_ablation(
            suites=[
                protomata_like(total=25),
                snort_like(total=40),
                suricata_like(total=40),
            ],
            threshold=10,
        )
        # Protomata's gaps are all ambiguous: disabling bit vectors
        # degenerates to unfold-all, and the bit vectors do real work
        assert (
            result.point("Protomata", "counter-only").nodes
            == result.point("Protomata", "unfold-all").nodes
            > result.point("Protomata", "full").nodes
        )
        # Snort's guarded runs are counter territory: disabling
        # counters costs most of the win
        assert (
            result.point("Snort", "bitvector-only").nodes
            > result.point("Snort", "full").nodes * 1.5
        )
        assert (
            result.point("Snort", "full").nodes
            < result.point("Snort", "unfold-all").nodes
        )
        # the full policy dominates both single-module designs
        for suite in ("Protomata", "Snort", "Suricata"):
            full = result.point(suite, "full").nodes
            assert full <= result.point(suite, "counter-only").nodes
            assert full <= result.point(suite, "bitvector-only").nodes
        assert "Ablation" in format_policy_ablation(result)


class TestStrictnessAblation:
    def test_gate_is_cheap_on_benchmarks(self):
        rows = run_strictness_ablation(suites=[snort_like(total=40)])
        (row,) = rows
        assert row.counter_candidates > 0
        assert row.demoted <= max(1, row.counter_candidates // 10)
        assert row.nodes_strict >= row.nodes_naive
        assert "strict" in format_strictness_ablation(rows)
