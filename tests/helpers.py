"""Shared test utilities: regex strategies and engine-agreement checks."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.nca.counting_sets import counting_match_ends
from repro.nca.execution import nca_match_ends
from repro.nca.glushkov import build_nca
from repro.regex.ast import (
    EPSILON,
    Regex,
    Sym,
    alternation,
    concat,
    repeat,
    star,
)
from repro.regex.charclass import CharClass
from repro.regex.oracle import match_ends
from repro.regex.rewrite import simplify

#: Small alphabet used by the property tests: enough to produce
#: overlapping classes (the source of interesting ambiguity) while
#: keeping input spaces searchable.
ALPHABET = b"abc"


def char_classes() -> st.SearchStrategy[CharClass]:
    """Non-empty classes over the small alphabet, plus their complements."""
    subsets = st.sets(st.sampled_from(list(ALPHABET)), min_size=1, max_size=3)
    return st.builds(CharClass.of_bytes, subsets) | st.builds(
        lambda s: CharClass.of_bytes(s).complement(),
        st.sets(st.sampled_from(list(ALPHABET)), min_size=1, max_size=2),
    )


def regexes(max_depth: int = 3, max_bound: int = 5) -> st.SearchStrategy[Regex]:
    """Random regex ASTs with counting, at most ``max_depth`` deep."""
    leaves = st.builds(Sym, char_classes()) | st.just(EPSILON)

    def extend(children: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        pair = st.tuples(children, children)
        bounds = st.tuples(
            st.integers(min_value=0, max_value=max_bound),
            st.integers(min_value=2, max_value=max_bound),
        )
        return st.one_of(
            st.builds(lambda ab: concat(*ab), pair),
            st.builds(lambda ab: alternation(*ab), pair),
            st.builds(star, children),
            st.builds(
                lambda c_b: repeat(c_b[0], min(c_b[1][0], c_b[1][1]), c_b[1][1]),
                st.tuples(children, bounds),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def inputs(max_len: int = 12) -> st.SearchStrategy[bytes]:
    return st.binary(max_size=max_len).map(
        lambda raw: bytes(ALPHABET[b % len(ALPHABET)] for b in raw)
    )


def engines_match_ends(ast: Regex, data: bytes) -> tuple[list[int], list[int], list[int]]:
    """(oracle, token-interpreter, counting-set) report positions."""
    simplified = simplify(ast)
    want = [e for e in match_ends(simplified, data)]
    nca = build_nca(simplified)
    got_tokens = nca_match_ends(nca, data)
    got_counting = counting_match_ends(nca, data)
    return want, got_tokens, got_counting


def random_strings(alphabet: str, count: int, max_len: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def planted_snort40() -> tuple[list[tuple[str, str]], bytes]:
    """The workload of the two tier-1 timing floors: the 40-rule
    Snort-style suite (callers unfold it: 3 889 STEs, no modules) and a
    120 KB style-matched stream with its matches planted."""
    from repro.workloads.inputs import plant_matches, stream_for_style
    from repro.workloads.synth import snort_like

    suite = snort_like(total=40, seed=7)
    background = stream_for_style(suite.input_style, 120_000, seed=5)
    data = plant_matches(background, [r.pattern for r in suite.rules], seed=6)
    return suite.patterns(), data


def forbid_rederivation(setattr_=setattr) -> None:
    """Make everything a cache hit must not re-run raise: the rule
    parser, ``regex.parse``, ``map_network``, ``block_modules.analyze``
    and ``_BlockProgram.__init__`` -- wherever ``repro`` imported them
    (``from x import f`` binds a second name a plain patch would miss).
    Pass ``monkeypatch.setattr`` to have it undone after the test."""
    import sys

    import repro  # noqa: F401 - the modules to patch must be loaded
    from repro.compiler.mapping import map_network
    from repro.engine import block, block_modules
    from repro.regex.parser import parse
    from repro.rules.parser import parse_rule

    forbidden = (parse_rule, parse, map_network, block_modules.analyze)

    def rederived(*args, **kwargs):
        raise AssertionError("re-derived on a cache hit")

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is function for function in forbidden):
                setattr_(module, attr, rederived)
    setattr_(block._BlockProgram, "__init__", rederived)


def forbid_report_views(setattr_=setattr) -> None:
    """Make reading any built-in scanner's ``reports`` view raise: the
    session's ``feed``/``finish`` path must work from the columns
    ``feed`` returns, decoding nothing.  Pass ``monkeypatch.setattr`` to
    have it undone after the test."""
    from repro.engine.backends import ReferenceScanner
    from repro.engine.block import BlockScanner
    from repro.engine.scanner import StreamScanner

    def decoded(self):
        raise AssertionError("reports view read on the feed/finish path")

    for scanner_class in (StreamScanner, BlockScanner, ReferenceScanner):
        setattr_(scanner_class, "reports", property(decoded))


def scanner_for(engine: str, network, tables=None):
    """A fresh ``engine`` scanner over ``network``'s tables (pass
    ``tables`` to share them): ``stream`` and ``block`` run the tables,
    the ``reference`` oracle interprets the network itself."""
    from repro.engine.backends import REFERENCE_ENGINE, ReferenceScanner, resolve_backend
    from repro.engine.tables import compile_tables

    if tables is None:
        tables = compile_tables(network)
    if engine == REFERENCE_ENGINE:
        return ReferenceScanner(tables, network)
    return resolve_backend(engine, tables).make_scanner(tables)
