"""Unit tests of the harness's own arithmetic and of its definitions.

Fast (< 5 s), no sockets, no child processes: the percentile rule, the
digest, span self time, input determinism, the verdict rule of
``compare.py``, and the consistency of ``BENCHMARK.json`` with the
files beside it.
"""

import json
import os
import random
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402

sys.path.insert(0, catalog.SRC)

import compare  # noqa: E402
import generate  # noqa: E402
import measure  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentiles --------------------------------------------------------------
def test_p95_refused_under_200_samples():
    samples = [float(i) for i in range(199)]
    with pytest.raises(ValueError, match="keeps 9 beyond"):
        measure.percentile(samples, 0.95)
    assert measure.percentile(samples, 0.5) == 99.0  # the median is exempt


def test_p95_is_nearest_rank_with_ten_beyond():
    samples = [float(i) for i in range(1, 201)]
    random.Random(1).shuffle(samples)
    assert measure.percentile(samples, 0.95) == 190.0
    assert sum(1 for s in samples if s > 190.0) == 10


def test_p95_over_position_medians_counts_every_pass():
    medians = [float(i) for i in range(64)]  # 3 positions beyond p95
    with pytest.raises(ValueError, match="keeps 9 beyond"):
        measure.percentile(medians, 0.95, repeats=3)
    assert measure.percentile(medians, 0.95, repeats=4) == 60.0


def test_position_medians_drop_a_burst_but_keep_a_repeating_pause():
    steady = [10.0, 10.0, 50.0, 10.0]  # position 2 pauses in every pass
    burst = [10.0, 14.0, 50.0, 14.0]   # one pass caught a slow host
    assert measure.position_medians([steady, burst, steady]) == steady
    with pytest.raises(ValueError):
        measure.position_medians([steady, steady[:-1]])
    with pytest.raises(ValueError):
        measure.position_medians([])


def test_spread_matches_the_acceptance_rule():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == (q3 - q1) / statistics.median(values)
    assert measure.spread([3.0]) == 0.0


# -- digest -------------------------------------------------------------------
def test_digest_ignores_order_but_not_content():
    rng = random.Random(7)
    matches = [(f"c{rng.randrange(2)}", f"rule{rng.randrange(9)}",
                rng.randrange(1, 10_000)) for _ in range(2000)]
    base = measure.digest(matches)
    shuffled = matches[:]
    rng.shuffle(shuffled)
    assert measure.digest(shuffled) == base
    assert measure.digest(iter(shuffled)) == base  # any iterable
    stream, rule, end = matches[0]
    assert measure.digest([(stream, rule, end + 1)] + matches[1:]) != base
    assert measure.digest(matches + matches[:1]) != base  # a multiset
    assert measure.digest(matches[1:]) != base
    assert measure.digest([]) == (0, 0)


def test_digest_separates_fields():
    # "a"+"bc" and "ab"+"c" must not collide through concatenation
    assert measure.digest([("", "a", 1), ("", "bc", 2)]) != measure.digest(
        [("", "ab", 1), ("", "c", 2)])


# -- spans --------------------------------------------------------------------
def span(span_id, start, end, parent=None, name="x"):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0),    # overlaps span 1: counted once
        span(3, 7.0, 8.0, parent=0),
        span(4, 9.0, 12.0, parent=0),   # clipped to the parent's end
        span(5, 2.5, 2.75, parent=2),   # a grandchild is span 2's business
    ]
    own = measure.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert own[2] == pytest.approx(3.0 - 0.25)
    assert own[5] == pytest.approx(0.25)


def test_tracer_nests_and_a_disabled_one_records_nothing():
    tracer = measure.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", chunk=3):
            pass
        wrapped = tracer.wrap("call", lambda x: x + 1)
        assert wrapped(1) == 2
    inner, call = tracer.spans[1], tracer.spans[2]
    assert (inner["parent"], inner["chunk"], call["parent"]) == (outer, 3, outer)
    assert tracer.total("outer") >= tracer.total("inner") + tracer.total("call")
    assert tracer.self_total("outer") == pytest.approx(
        tracer.total("outer") - tracer.total("inner") - tracer.total("call"))
    quiet = measure.Tracer(enabled=False)
    with quiet.span("nothing"):
        pass
    quiet.end(quiet.begin("explicit"))
    assert quiet.spans == []


# -- inputs -------------------------------------------------------------------
@pytest.mark.parametrize("workload", list(generate.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    scale = 1 / 64
    first = generate.make_inputs(workload, 11, scale)
    again = generate.make_inputs(workload, 11, scale)
    other = generate.make_inputs(workload, 12, scale)
    assert first == again  # byte-identical streams, identical rules
    assert first.streams != other.streams
    assert all(a != b for a, b in zip(first.streams, other.streams))
    # the ruleset is the workload's definition, not a draw
    assert (first.rules_text, first.patterns) == (other.rules_text, other.patterns)
    # and so is what a set-up is primed with, at full size whatever the scale
    assert first.prime == other.prime
    assert len(first.prime) == generate.PRIME_BYTES
    assert len({bytes(s) for s in first.streams}) == len(first.streams)


def test_seeds_are_documented_and_distinct():
    assert generate.DEFAULT_SEED != generate.HELD_OUT_SEED
    assert generate.derive_seed(1, "background") != generate.derive_seed(1, "plant")
    assert generate.derive_seed(1, "plant") != generate.derive_seed(2, "plant")


# -- BENCHMARK.json and the files beside it -----------------------------------
@pytest.fixture(scope="module")
def spec():
    return catalog.load_benchmark()


def test_benchmark_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/harness"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])
    size = os.path.getsize(os.path.join(catalog.ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_workloads_match_the_generators(spec):
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)


def test_every_layer_names_what_it_should_move(spec):
    layers = catalog.load_layers()
    end_to_end = {e["name"] for e in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert list(layers) == [e["name"] for e in spec["per_layer"]]
    for name, info in layers.items():
        assert set(info) == {"moves", "on", "kind", "exact"}, name
        assert info["moves"] in end_to_end, name
        assert info["on"] and set(info["on"]) <= workloads, name
        assert info["kind"] in ("host", "count", "simulated", "ratio"), name
        if info["kind"] == "simulated":
            assert info["exact"], f"{name}: simulated numbers must repeat"


def test_every_workload_has_a_pinned_digest(spec):
    pinned = catalog.load_pinned()
    assert pinned["seed"] == generate.DEFAULT_SEED
    for workload in spec["workloads"]:
        count, crc = pinned[workload["name"]]
        assert count > 0 and 0 <= crc < 2 ** 32


def test_results_keep_only_the_trajectory():
    with open(os.path.join(catalog.RESULTS_DIR, ".gitignore")) as handle:
        assert handle.read().split() == ["*", "!.gitignore", "!history.jsonl"]
    with open(catalog.HISTORY_PATH, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            assert {"commit", "utc", "seed", "nproc", "python", "numpy",
                    "medians"} <= set(entry)


# -- compare.py's verdicts ----------------------------------------------------
def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "same"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict(steady, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "better"
    assert compare.verdict(slower, steady, "lower", 0.1)[0] == "better"
    # within the bound and not clear of A's own spread: nothing to claim
    assert compare.verdict(steady, [v * 1.005 for v in steady],
                           "lower", 0.1)[0] == "same"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    # wide spread, yet every B run beats every A run
    assert compare.verdict(noisy, [1.0, 2.0, 3.0], "lower", 0.1)[0] == "better"
    word, ratio = compare.verdict([2.0], [3.0], "lower", 0.1)
    assert (word, ratio) == ("worse", 1.5)  # the ratio's base is A
