"""The persistent compiled-ruleset cache (repro.compiler.cache).

Round-trip: save -> load -> identical scan results, with warm starts
a pure load (nothing re-derived, nothing written).  Invalidation: any
option or rule change (and any version skew or corruption) must miss,
never poison -- and a crafted entry is a miss, never an import.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro.engine.block as block_engine
from repro.compiler import cache as cache_mod
from repro.compiler.cache import (
    load_artifact,
    ruleset_cache_key,
)
from repro.engine.parallel import ShardedMatcher
from repro.matching import RulesetMatcher, merge_compile_infos
from repro.rules import load_rules_text
from tests.helpers import forbid_rederivation

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
needs_numpy = pytest.mark.skipif(
    block_engine.numpy_or_none() is None, reason="numpy not installed"
)

RULES = [
    ("r1", r"ab{2,5}c"),
    ("r2", r"ab{2,5}d"),
    ("end", r"xyz$"),
    ("nul", r"q*"),
    ("bad", r"(a)\1"),
]
DATA = b"zabbbc abbd xyz abbbbd qqq xyz"

RULES_TEXT = """
alert tcp any any -> any 80 (msg:"literal"; content:"GET /admin"; sid:1;)
alert tcp any any -> any 21 (msg:"counted"; pcre:"/RETR [a-z]{3,12}x/"; sid:2;)
alert tcp any any -> any 25 (msg:"gap"; content:"MAIL"; content:"evil"; distance:1; within:9; sid:3;)
alert tcp any any -> any any (msg:"backreference"; pcre:"/(user)\\1/"; sid:4;)
this line is a syntax error
"""
TEXT_DATA = b"GET /admin RETR abcdx MAIL..evil RETR abx"


def _listing(cache_dir):
    """File names, sizes and mtimes: what "wrote nothing" is held to."""
    return sorted(
        (entry.name, entry.stat().st_size, entry.stat().st_mtime_ns)
        for entry in os.scandir(cache_dir)
    )


class TestCacheKey:
    def test_deterministic(self):
        assert ruleset_cache_key(RULES) == ruleset_cache_key(list(RULES))

    def test_rules_and_order_matter(self):
        assert ruleset_cache_key(RULES) != ruleset_cache_key(RULES[:-1])
        assert ruleset_cache_key(RULES) != ruleset_cache_key(RULES[::-1])

    def test_every_option_invalidates(self):
        base = ruleset_cache_key(RULES)
        assert ruleset_cache_key(RULES, unfold_threshold=3) != base
        assert ruleset_cache_key(RULES, method="exact") != base
        assert ruleset_cache_key(RULES, strict_modules=False) != base
        assert ruleset_cache_key(RULES, max_pairs=10) != base
        assert ruleset_cache_key(RULES, bv_module_size=2000) != base
        assert ruleset_cache_key(RULES, opt_level=1) != base

    def test_rule_id_pattern_boundary_is_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc")
        assert ruleset_cache_key([("ab", "c")]) != ruleset_cache_key([("a", "bc")])

    def test_separator_bytes_in_rules_cannot_collide(self):
        # regression: in-band \x00/\x01 framing let one rule containing
        # the separators collide with two separate rules
        assert ruleset_cache_key([("a", "b\x00c\x01d")]) != ruleset_cache_key(
            [("a", "b"), ("c", "d")]
        )


class TestRoundTrip:
    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_warm_start_scans_identically(self, tmp_path, opt_level):
        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, opt_level=opt_level, cache_dir=cache_dir)
        assert not cold.compile_info.cache_hit
        assert cold.compile_info.cache_path is not None
        assert os.path.exists(cold.compile_info.cache_path)

        warm = RulesetMatcher(RULES, opt_level=opt_level, cache_dir=cache_dir)
        assert warm.compile_info.cache_hit
        assert warm.ruleset is None  # no CompiledPatterns rebuilt
        assert warm.scan(DATA) == cold.scan(DATA)
        assert warm.scan_stream([DATA[:7], DATA[7:]]) == cold.scan(DATA)
        assert warm.skipped == cold.skipped
        assert warm.empty_match_rules() == cold.empty_match_rules()
        assert warm.resources() == cold.resources()
        # the stored mapping prices a scan exactly as the derived one
        assert warm.mapping == cold.mapping
        assert (
            warm.scan(DATA).energy_nj_per_byte == cold.scan(DATA).energy_nj_per_byte
        )
        # the reference oracle works from the rules, recompiled
        assert warm.scan(DATA, engine="reference") == cold.scan(DATA)

    def test_tables_ship_in_the_artifact_without_a_network(self, tmp_path):
        from repro.compiler.cache import artifact_path

        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, cache_dir=cache_dir)
        warm = RulesetMatcher(RULES, cache_dir=cache_dir)
        # tables came off disk -- no lazy compile left to do
        assert warm._tables is not None
        assert warm.tables.n_classes >= 1
        # the network is the compiler's intermediate form: neither the
        # tables nor the artifact carry it, and no mnrl class is loaded
        assert not hasattr(warm.tables, "network")
        assert warm._network is None
        modules = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                modules.add(module)
                return super().find_class(module, name)

        with open(cold.compile_info.cache_path, "rb") as handle:
            artifact = Recording(handle).load()
        assert "repro.engine.tables" in modules
        assert not any(module.startswith("repro.mnrl") for module in modules)
        assert not hasattr(artifact, "network") and not hasattr(artifact, "backends")
        assert artifact_path(cache_dir, artifact.key) == cold.compile_info.cache_path

    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_warm_reference_equals_cold_reference(self, tmp_path, opt_level, monkeypatch):
        """The first ``reference`` scan on a warm matcher compiles the
        rules once, and the oracle it builds reports and counts exactly
        what the cold matcher's does."""
        import repro.matching as matching

        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, opt_level=opt_level, cache_dir=cache_dir)
        warm = RulesetMatcher(RULES, opt_level=opt_level, cache_dir=cache_dir)
        assert warm.compile_info.cache_hit
        compiles = []
        real = matching.compile_ruleset
        monkeypatch.setattr(
            matching, "compile_ruleset",
            lambda *args, **kwargs: compiles.append(1) or real(*args, **kwargs),
        )
        runs = {}
        for name, matcher in (("cold", cold), ("warm", warm), ("again", warm)):
            session = matcher.session(engine="reference")
            matches = session.feed(DATA) + session.finish()
            runs[name] = (matches, session.scanners[0].stats)
        assert len(compiles) == 1  # the warm matcher's first oracle only
        assert runs["warm"][0] == runs["cold"][0] == runs["again"][0]
        assert runs["warm"][1] == runs["cold"][1] == runs["again"][1]
        assert runs["warm"][0]  # the oracle found something to agree on

    def test_sharded_matchers_cache_per_shard(self, tmp_path):
        cache_dir = str(tmp_path)
        cold = ShardedMatcher(RULES, shards=2, cache_dir=cache_dir)
        warm = ShardedMatcher(RULES, shards=2, cache_dir=cache_dir)
        assert all(not info.cache_hit for info in cold.compile_infos)
        assert all(info.cache_hit for info in warm.compile_infos)
        assert warm.scan(DATA) == cold.scan(DATA)


class TestInvalidation:
    def test_option_change_misses(self, tmp_path):
        cache_dir = str(tmp_path)
        RulesetMatcher(RULES, cache_dir=cache_dir)
        changed = RulesetMatcher(RULES, opt_level=1, cache_dir=cache_dir)
        assert not changed.compile_info.cache_hit
        threshold = RulesetMatcher(
            RULES, unfold_threshold=4, cache_dir=cache_dir
        )
        assert not threshold.compile_info.cache_hit

    def test_rule_change_misses(self, tmp_path):
        cache_dir = str(tmp_path)
        RulesetMatcher(RULES, cache_dir=cache_dir)
        other = RulesetMatcher(RULES[:-1], cache_dir=cache_dir)
        assert not other.compile_info.cache_hit

    def test_corrupt_artifact_recompiles(self, tmp_path):
        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, cache_dir=cache_dir)
        path = cold.compile_info.cache_path
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        recovered = RulesetMatcher(RULES, cache_dir=cache_dir)
        assert not recovered.compile_info.cache_hit
        assert recovered.scan(DATA) == cold.scan(DATA)
        # ... and the overwrite repaired the entry
        assert RulesetMatcher(RULES, cache_dir=cache_dir).compile_info.cache_hit

    def test_foreign_pickle_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, cache_dir=cache_dir)
        with open(cold.compile_info.cache_path, "wb") as handle:
            pickle.dump({"not": "an artifact"}, handle)
        assert not RulesetMatcher(RULES, cache_dir=cache_dir).compile_info.cache_hit

    @pytest.mark.parametrize(
        "target, argument",
        [
            ("os.system", "touch {side}"),
            ("subprocess.check_call", ["touch", "{side}"]),
            ("builtins.exec", "open({side!r}, 'w').close()"),
            ("builtins.eval", "open({side!r}, 'w').close()"),
        ],
    )
    def test_crafted_artifact_is_a_miss_not_an_import(
        self, tmp_path, target, argument
    ):
        cache_dir = str(tmp_path / "cache")
        side = str(tmp_path / "side-effect")
        cold = RulesetMatcher(RULES, cache_dir=cache_dir)
        module, name = target.rsplit(".", 1)
        function = getattr(importlib.import_module(module), name)
        if isinstance(argument, list):
            argument = [part.format(side=side) for part in argument]
        else:
            argument = argument.format(side=side)

        class Payload:
            def __reduce__(self):
                return function, (argument,)

        with open(cold.compile_info.cache_path, "wb") as handle:
            pickle.dump(Payload(), handle)
        recovered = RulesetMatcher(RULES, cache_dir=cache_dir)
        assert not os.path.exists(side)  # the payload never ran
        assert not recovered.compile_info.cache_hit
        assert recovered.scan(DATA) == cold.scan(DATA)
        # ... and the overwrite repaired the entry
        assert RulesetMatcher(RULES, cache_dir=cache_dir).compile_info.cache_hit

    def test_crafted_triage_entry_is_a_miss_not_an_import(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        side = str(tmp_path / "side-effect")
        load_rules_text(RULES_TEXT).compile(cache_dir=cache_dir)
        (entry,) = [n for n in os.listdir(cache_dir) if n.startswith("triage-")]

        class Payload:
            def __reduce__(self):
                return os.system, (f"touch {side}",)

        with open(os.path.join(cache_dir, entry), "wb") as handle:
            pickle.dump(Payload(), handle)
        matcher, report = load_rules_text(RULES_TEXT).compile(cache_dir=cache_dir)
        assert not os.path.exists(side)
        assert "triage" in matcher.compile_info.phases  # re-triaged ...
        assert matcher.compile_info.cache_hit  # ... onto the same artifact
        assert report.counts == {"compiled": 2, "rewritten": 1, "rejected": 2}
        warm, _ = load_rules_text(RULES_TEXT).compile(cache_dir=cache_dir)
        assert set(warm.compile_info.phases) == {"load"}

    def test_allow_list_names_real_classes(self):
        # a renamed or moved class must fail here, not as a silent
        # permanent cache miss
        for module, name in cache_mod._ALLOWED_GLOBALS:
            assert module.startswith("repro.")
            assert isinstance(getattr(importlib.import_module(module), name), type)
        # entries hold tables, not the emitted network's node graph
        assert not any(
            module.startswith("repro.mnrl") for module, _ in cache_mod._ALLOWED_GLOBALS
        )

    def test_version_skew_is_a_miss(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, cache_dir=cache_dir)
        key = os.path.basename(cold.compile_info.cache_path)[len("ruleset-"):-len(".pkl")]
        assert load_artifact(cache_dir, key) is not None
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION + 1)
        assert load_artifact(cache_dir, key) is None

    def test_missing_dir_is_a_miss_not_an_error(self, tmp_path):
        missing = str(tmp_path / "nowhere")
        matcher = RulesetMatcher(RULES, cache_dir=missing)
        assert not matcher.compile_info.cache_hit
        assert os.path.isdir(missing)  # created on save


def _warm_starts(cache_dir):
    """The three cached entry points, as ``(name, matcher)`` pairs."""
    loaded, _ = load_rules_text(RULES_TEXT).compile(cache_dir=cache_dir)
    yield "loaded", loaded
    yield "matcher", RulesetMatcher(RULES, opt_level=1, cache_dir=cache_dir)
    yield "sharded", ShardedMatcher(RULES, shards=2, cache_dir=cache_dir)


def _feed_all(cache_dir):
    """Warm-start every entry point, open a session, feed: returns
    ``{name: (matches, phase names)}``."""
    out = {}
    for name, matcher in _warm_starts(cache_dir):
        assert matcher.compile_info.cache_hit, name
        with matcher.session() as session:
            matches = session.feed(TEXT_DATA + DATA)
            matches += session.finish()
        out[name] = (
            [(match.rule, match.end) for match in matches],
            sorted(matcher.compile_info.phases),
        )
    return out


class TestWarmStartIsALoad:
    """A cache hit re-derives nothing and writes nothing."""

    def test_nothing_is_rederived_on_a_hit(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path)
        cold = dict(_warm_starts(cache_dir))
        assert not any(m.compile_info.cache_hit for m in cold.values())
        resources = {name: m.resources() for name, m in cold.items()}
        want = _feed_all(cache_dir)
        before = _listing(cache_dir)
        forbid_rederivation(monkeypatch.setattr)
        with pytest.raises(AssertionError, match="re-derived"):
            RulesetMatcher(RULES)  # the guard is live
        assert _feed_all(cache_dir) == want
        for name, warm in _warm_starts(cache_dir):
            assert warm.resources() == resources[name], name  # from the tables
        assert all(phases == ["load"] for _, phases in want.values())
        assert _listing(cache_dir) == before  # a warm start wrote nothing

    def test_fresh_process_hit_only_loads(self, tmp_path):
        cache_dir = str(tmp_path)
        for _ in _warm_starts(cache_dir):
            pass
        want = _feed_all(cache_dir)
        before = _listing(cache_dir)
        script = (
            "import json, sys\n"
            "from tests.helpers import forbid_rederivation\n"
            "from tests.compiler.test_cache import _feed_all\n"
            "forbid_rederivation()\n"
            "print(json.dumps(_feed_all(sys.argv[1])))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT, env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script, cache_dir],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert got == json.loads(json.dumps(want))
        assert all(phases == ["load"] for _, phases in got.values())
        assert _listing(cache_dir) == before

    def test_phases_account_for_the_cold_path(self, tmp_path):
        cold = RulesetMatcher(RULES, cache_dir=str(tmp_path)).compile_info
        assert set(cold.phases) == {
            "load", "compile", "map", "lower", "prepare", "save"
        }
        assert sum(cold.phases.values()) <= cold.seconds
        uncached = RulesetMatcher(RULES).compile_info
        assert set(uncached.phases) == {"compile", "map"}
        merged = merge_compile_infos([cold, uncached])
        assert merged.phases["compile"] == pytest.approx(
            cold.phases["compile"] + uncached.phases["compile"]
        )
        assert merged.phases["save"] == cold.phases["save"]
        loaded, _ = load_rules_text(RULES_TEXT).compile(cache_dir=str(tmp_path))
        assert "triage" in loaded.compile_info.phases
        assert sum(loaded.compile_info.phases.values()) <= loaded.compile_info.seconds

    def test_loaded_artifact_can_be_saved_again(self, tmp_path):
        cold = RulesetMatcher(RULES, cache_dir=str(tmp_path / "a"))
        key = os.path.basename(cold.compile_info.cache_path)[len("ruleset-"):-len(".pkl")]
        artifact = load_artifact(str(tmp_path / "a"), key)
        cold.session().feed(DATA)  # a used program saves the same
        cache_mod.save_artifact(artifact, str(tmp_path / "b"))
        again = RulesetMatcher(RULES, cache_dir=str(tmp_path / "b"))
        assert again.compile_info.cache_hit
        assert again.scan(DATA) == cold.scan(DATA)


@needs_numpy
class TestNumpyBoundary:
    """Artifacts cross the NumPy / no-NumPy boundary as hits, both ways."""

    def test_written_without_numpy_hits_with_numpy(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(block_engine, "_np", None)
            cold = RulesetMatcher(RULES, cache_dir=cache_dir)
            assert "block" not in cold.tables.prepared
            want = cold.scan(DATA)
        before = _listing(cache_dir)
        warm = RulesetMatcher(RULES, cache_dir=cache_dir)
        assert warm.compile_info.cache_hit
        assert "block" not in warm.tables.prepared  # built on first use ...
        (scanner,) = warm.session().scanners
        assert type(scanner).__name__ == "BlockScanner"
        assert warm.scan(DATA) == want
        assert "block" in warm.tables.prepared
        assert _listing(cache_dir) == before  # ... and not written back

    def test_written_with_numpy_hits_without_numpy(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path)
        cold = RulesetMatcher(RULES, cache_dir=cache_dir)
        want = cold.scan(DATA)
        raw = open(cold.compile_info.cache_path, "rb").read()
        assert b"numpy" not in raw  # the stored program holds no ndarray
        monkeypatch.setattr(block_engine, "_np", None)
        warm = RulesetMatcher(RULES, cache_dir=cache_dir)
        assert warm.compile_info.cache_hit
        (scanner,) = warm.session().scanners
        assert type(scanner).__name__ == "StreamScanner"
        assert warm.scan(DATA) == want
