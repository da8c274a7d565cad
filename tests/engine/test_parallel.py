"""The shard policy, the per-shard merge, and the in-process sharded matcher."""

import pytest

from repro.engine.parallel import ShardedMatcher, merge_scan_results, shard_rules
from repro.matching import RulesetMatcher, ScanResult

RULES = [
    ("r0", r"abc"),
    ("r1", r"[0-9]{3,6}"),
    ("r2", r"xyz$"),
    ("r3", r"^GET"),
    ("r4", r"a.{2,4}z"),
]

DATA = b"GET /abc 12345 aXXz ... xyz"


class TestShardRules:
    def test_round_robin(self):
        buckets = shard_rules(RULES, 2)
        assert buckets[0] == [RULES[0], RULES[2], RULES[4]]
        assert buckets[1] == [RULES[1], RULES[3]]

    def test_bare_strings_get_compile_ruleset_ids(self):
        buckets = shard_rules(["abc", "def", "ghi"], 2)
        assert buckets[0] == [("rule0", "abc"), ("rule2", "ghi")]
        assert buckets[1] == [("rule1", "def")]

    def test_more_shards_than_rules(self):
        buckets = shard_rules(RULES, 10)
        assert sum(len(b) for b in buckets) == len(RULES)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_rules(RULES, 0)


class TestMerge:
    def test_union_and_energy_sum(self):
        a = ScanResult(10, {"x": [1, 3]}, 0.5)
        b = ScanResult(10, {"x": [3, 5], "y": [2]}, 0.25)
        merged = merge_scan_results([a, b])
        assert merged.matches == {"x": [1, 3, 5], "y": [2]}
        assert merged.energy_nj_per_byte == 0.75
        assert merged.bytes_scanned == 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_scan_results([ScanResult(1), ScanResult(2)])

    def test_empty_merge_is_the_neutral_result(self):
        # the cluster scatter-gather path folds whatever shard subset
        # responded; zero shards must merge to the zero result, not raise
        merged = merge_scan_results([])
        assert merged.bytes_scanned == 0
        assert merged.matches == {}
        assert merged.energy_nj_per_byte == 0.0
        assert merged.compile_info is None

    def test_one_element_merge_is_identity(self):
        one = ScanResult(10, {"x": [1, 3]}, 0.5)
        merged = merge_scan_results([one])
        assert merged == one
        assert merged.matches == {"x": [1, 3]}

    def test_empty_merges_as_identity_element(self):
        # merging the neutral result into a real one must not change it
        real = ScanResult(7, {"x": [2]}, 0.25)
        with pytest.raises(ValueError):
            # ... but stream lengths still have to agree (0 != 7): the
            # identity only applies to the empty *list*, never to mixing
            # results from different streams
            merge_scan_results([merge_scan_results([]), real])


class TestMergeCompileInfo:
    def test_merge_scan_results_merges_compile_info(self):
        from repro.matching import CompileInfo

        info_a = CompileInfo(cache_hit=True, seconds=0.5, opt_level=0)
        info_b = CompileInfo(cache_hit=False, seconds=0.25, opt_level=1)
        a = ScanResult(10, {"x": [1]}, 0.5, compile_info=info_a)
        b = ScanResult(10, {"y": [2]}, 0.25, compile_info=info_b)
        merged = merge_scan_results([a, b])
        assert merged.compile_info is not None
        assert merged.compile_info.seconds == 0.75
        assert not merged.compile_info.cache_hit  # one shard was cold
        assert merged.compile_info.opt_level == 1

    def test_merge_without_info_stays_none(self):
        merged = merge_scan_results([ScanResult(5), ScanResult(5)])
        assert merged.compile_info is None

    def test_sharded_scan_surfaces_merged_timing(self):
        matcher = ShardedMatcher(RULES, shards=3)
        result = matcher.scan(DATA)
        assert result.compile_info is not None
        assert result.compile_info.seconds == pytest.approx(
            sum(info.seconds for info in matcher.compile_infos)
        )
        assert matcher.compile_info.seconds == result.compile_info.seconds
        assert not result.compile_info.cache_hit  # fresh compiles

    def test_sharded_all_warm_reports_cache_hit(self, tmp_path):
        rules = [("r0", "abc"), ("r1", "def")]
        cold = ShardedMatcher(rules, shards=2, cache_dir=str(tmp_path))
        assert not cold.compile_info.cache_hit
        warm = ShardedMatcher(rules, shards=2, cache_dir=str(tmp_path))
        assert warm.compile_info.cache_hit
        assert warm.scan(b"zabc").compile_info.cache_hit

    def test_compile_info_excluded_from_result_equality(self, tmp_path):
        rules = [("r0", "abc")]
        cold = RulesetMatcher(rules, cache_dir=str(tmp_path))
        warm = RulesetMatcher(rules, cache_dir=str(tmp_path))
        assert cold.compile_info.seconds != warm.compile_info.seconds
        # same scan, equal results, regardless of compile provenance
        assert cold.scan(b"zabc") == warm.scan(b"zabc")


class TestShardedMatcher:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_scan_equals_unsharded(self, shards):
        baseline = RulesetMatcher(RULES).scan(DATA)
        sharded = ShardedMatcher(RULES, shards=shards).scan(DATA)
        assert sharded.matches == baseline.matches
        assert sharded.bytes_scanned == baseline.bytes_scanned

    def test_scan_stream_equals_scan(self):
        matcher = ShardedMatcher(RULES, shards=2)
        assert (
            matcher.scan_stream([DATA[:7], DATA[7:20], DATA[20:]]).matches
            == matcher.scan(DATA).matches
        )

    def test_resources_aggregate(self):
        whole = RulesetMatcher(RULES).resources()
        sharded = ShardedMatcher(RULES, shards=2).resources()
        assert sharded.rules_compiled == whole.rules_compiled
        assert sharded.stes == whole.stes
        assert sharded.counters == whole.counters
        assert sharded.bit_vectors == whole.bit_vectors
        assert sharded.area_mm2 > 0

    def test_skipped_aggregates(self):
        rules = RULES + [("bad", r"(a)\1")]
        matcher = ShardedMatcher(rules, shards=3)
        assert [rule_id for rule_id, _ in matcher.skipped] == ["bad"]

    def test_energy_positive(self):
        assert ShardedMatcher(RULES, shards=2).scan(DATA).energy_nj_per_byte > 0


class TestScanMany:
    STREAMS = [DATA, b"no hits here", b"9999", b"", b"abc xyz"]

    def test_serial_equals_per_stream_scan(self):
        matcher = RulesetMatcher(RULES)
        batch = matcher.scan_many(self.STREAMS)
        assert batch == [matcher.scan(s) for s in self.STREAMS]

    def test_sharded_scan_many(self):
        matcher = ShardedMatcher(RULES, shards=2)
        batch = matcher.scan_many(self.STREAMS)
        assert [r.matches for r in batch] == [
            matcher.scan(s).matches for s in self.STREAMS
        ]
