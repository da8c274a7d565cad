"""Synthetic benchmark suites calibrated to the paper's rule sets.

The paper evaluates on Snort, Suricata, Protomata, SpamAssassin and
ClamAV.  Those rule dumps are not redistributable (and unavailable
offline), so this module generates *structurally equivalent* suites:
every effect the paper measures depends on structural statistics --
the share of rules with counting, the share of counter-ambiguous
counting, the repetition-bound distribution, and the syntactic shapes
(guarded runs ``[^x]x{n}``, wildcard gaps ``.{m,n}``, PROSITE
``x(m,n)`` gaps, hex signatures) -- and the generators are calibrated
to Table 1 and the paper's qualitative descriptions:

=============  ======  =========  ========  ===========
suite          total   supported  counting  c-ambiguous
=============  ======  =========  ========  ===========
Protomata       2338      2338      1675       1675
Snort           5839      5315      1934        282
Suricata        4480      3728      1510        246
SpamAssassin    3786      3690       459        279
ClamAV        100472    100472      4823       3626
=============  ======  =========  ========  ===========

Every generator is deterministic given its seed and scales to any
requested rule count while keeping the proportions; the default sizes
are 1/10th of the paper's (ClamAV 1/50th) so the full analysis pipeline
runs in CI time.  ``EXPERIMENTS.md`` records our measured censuses next
to the paper's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "Rule",
    "Suite",
    "PAPER_TABLE1",
    "snort_like",
    "suricata_like",
    "protomata_like",
    "spamassassin_like",
    "clamav_like",
    "module_heavy",
    "suite_by_name",
    "all_suites",
    "APPLICATION_SUITES",
]


@dataclass(frozen=True)
class Rule:
    """One benchmark rule: an id, pattern text, and provenance tags."""

    rule_id: str
    pattern: str
    #: generator-intended category, for calibration tests:
    #: 'plain' | 'count-unambiguous' | 'count-ambiguous' | 'unsupported'
    category: str


@dataclass
class Suite:
    """A generated benchmark suite."""

    name: str
    rules: list[Rule]
    #: printable-alphabet hint for matching input streams
    input_style: str
    description: str = ""

    def patterns(self) -> list[tuple[str, str]]:
        return [(r.rule_id, r.pattern) for r in self.rules]

    def intended_counts(self) -> dict[str, int]:
        counts = {"plain": 0, "count-unambiguous": 0, "count-ambiguous": 0, "unsupported": 0}
        for rule in self.rules:
            counts[rule.category] += 1
        return counts


#: Table 1 of the paper, for side-by-side comparison in experiments.
PAPER_TABLE1 = {
    "Protomata": {"total": 2338, "supported": 2338, "counting": 1675, "ambiguous": 1675},
    "Snort": {"total": 5839, "supported": 5315, "counting": 1934, "ambiguous": 282},
    "Suricata": {"total": 4480, "supported": 3728, "counting": 1510, "ambiguous": 246},
    "SpamAssassin": {"total": 3786, "supported": 3690, "counting": 459, "ambiguous": 279},
    "ClamAV": {"total": 100472, "supported": 100472, "counting": 4823, "ambiguous": 3626},
}


# ----------------------------------------------------------------------
# Shared vocabulary
# ----------------------------------------------------------------------
_WORDS = (
    "admin config login session token shell root exec select union passwd "
    "download update install payload header content agent host referer "
    "cookie range index search query upload module script iframe object"
).split()

_HEADER_NAMES = (
    "User-Agent", "Content-Type", "Content-Length", "Host", "Referer",
    "Cookie", "Authorization", "Accept", "X-Forwarded-For", "Range",
)

#: guarded-run shapes: (negated guard class, run class) with guard
#: disjoint from the run -- the counter-unambiguous pattern family of
#: Example 3.4 / the Snort discussion ("Sigma* ~s s{n}").
_GUARDED_RUNS = (
    (r"\r\n", r"[^\r\n]"),
    (r"\x00", r"[^\x00]"),
    (r"[^0-9]", r"[0-9]"),
    (r"[^A-Za-z]", r"[A-Za-z]"),
    (r"=", r"[^=;]"),
    (r"/", r"[^/?]"),
    (r'"', r'[^"]'),
    (r"[^A-Za-z0-9+/]", r"[A-Za-z0-9+/]"),
)

_AMINO = "ACDEFGHIKLMNPQRSTVWY"


def _literal(rng: random.Random, lo: int = 3, hi: int = 10) -> str:
    word = rng.choice(_WORDS)
    if rng.random() < 0.3:
        word += rng.choice(("=", ": ", "/", "_")) + rng.choice(_WORDS)
    return word[: rng.randint(lo, max(lo, hi))]


def _bound(rng: random.Random, style: str) -> tuple[int, int]:
    """Draw (lo, hi) from the suite's bound distribution.

    Network suites mix small header limits with the large bounds
    (hundreds to ~1024) that make unfolding blow up -- the regime where
    Figures 9/10 show the big wins.
    """
    roll = rng.random()
    if style == "network":
        if roll < 0.45:
            hi = rng.randint(2, 20)
        elif roll < 0.75:
            hi = rng.randint(21, 100)
        else:
            hi = rng.randint(101, 1024)
    elif style == "motif":
        # PROSITE x(m,n) gaps are mostly narrow (x(2), x(3), x(2,10));
        # wide gaps up to ~30 exist but are rare.
        hi = rng.randint(2, 12) if roll < 0.8 else rng.randint(13, 30)
    elif style == "mail":
        if roll < 0.7:
            hi = rng.randint(2, 16)
        else:
            hi = rng.randint(17, 128)
    else:  # virus signatures: wide byte gaps
        if roll < 0.5:
            hi = rng.randint(4, 64)
        else:
            hi = rng.randint(65, 512)
    lo = rng.randint(0, hi) if rng.random() < 0.5 else hi
    return lo, hi


def _take(rng: random.Random, total: int, fractions: dict[str, float]) -> list[str]:
    """Deterministic category assignment matching ``fractions``."""
    cats: list[str] = []
    for category, fraction in fractions.items():
        cats.extend([category] * round(total * fraction))
    while len(cats) < total:
        cats.append(next(iter(fractions)))
    del cats[total:]
    rng.shuffle(cats)
    return cats


# ----------------------------------------------------------------------
# Rule factories per category
# ----------------------------------------------------------------------
def _plain_network_rule(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.4:
        return _literal(rng) + rng.choice(("", r"\x3a", r"\x2f")) + _literal(rng)
    if kind < 0.7:
        return rng.choice(_HEADER_NAMES) + r"\x3a " + _literal(rng)
    if kind < 0.85:
        return "(" + "|".join(_literal(rng) for _ in range(rng.randint(2, 3))) + ")"
    return _literal(rng) + r"[0-9a-f]*" + _literal(rng, 2, 4)


def _unambiguous_count_rule(rng: random.Random, style: str) -> str:
    """Guarded run: ``prefix ~s s{m,n} suffix`` -- counter-eligible."""
    guard, run = rng.choice(_GUARDED_RUNS)
    lo, hi = _bound(rng, style)
    lo = max(lo, 1)
    prefix = _literal(rng) if rng.random() < 0.6 else ""
    suffix = guard if rng.random() < 0.5 else ""
    return f"{prefix}{guard}{run}{{{lo},{hi}}}{suffix}"


def _ambiguous_count_rule(rng: random.Random, style: str) -> str:
    """Wildcard/overlapping-gap shapes -- bit-vector territory."""
    lo, hi = _bound(rng, style)
    kind = rng.random()
    if kind < 0.45:
        # gap between two contents: `cmd=.{1,512}exec`
        return f"{_literal(rng)}.{{{lo},{hi}}}{_literal(rng)}"
    if kind < 0.75:
        # bare class run with no disjoint guard: `[0-9]{13,16}`
        cls = rng.choice((r"[0-9]", r"[A-Za-z0-9+/]", r"[a-z ]", r"\w"))
        return f"{cls}{{{max(lo, 2)},{hi}}}"
    # overlapping guard: guard class intersects the run class
    return f"{_literal(rng)} [ -~]{{{max(lo, 1)},{hi}}}{rng.choice(('!', ';', ''))}"


def _unsupported_rule(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.5:
        return f"({_literal(rng)}).*\\1"
    if kind < 0.8:
        return f"{_literal(rng)}(?={_literal(rng)})"
    return rf"\b{_literal(rng)}\b"


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
def _network_suite(
    name: str,
    total: int,
    seed: int,
    supported_frac: float,
    counting_frac: float,
    ambiguous_frac: float,
    description: str,
) -> Suite:
    """Common skeleton for the Snort- and Suricata-like suites.

    ``counting_frac`` is relative to supported rules, ``ambiguous_frac``
    relative to counting rules -- the way Table 1 nests its columns.
    """
    rng = random.Random(seed)
    unsupported = 1.0 - supported_frac
    counting = supported_frac * counting_frac
    ambiguous = counting * ambiguous_frac
    fractions = {
        "plain": supported_frac - counting,
        "count-unambiguous": counting - ambiguous,
        "count-ambiguous": ambiguous,
        "unsupported": unsupported,
    }
    rules: list[Rule] = []
    for i, category in enumerate(_take(rng, total, fractions)):
        if category == "plain":
            pattern = _plain_network_rule(rng)
        elif category == "count-unambiguous":
            pattern = _unambiguous_count_rule(rng, "network")
        elif category == "count-ambiguous":
            pattern = _ambiguous_count_rule(rng, "network")
        else:
            pattern = _unsupported_rule(rng)
        rules.append(Rule(f"{name.lower()}:{i}", pattern, category))
    return Suite(name, rules, input_style="network", description=description)


def snort_like(total: int = 584, seed: int = 0x5307) -> Suite:
    """Snort-like IDS payload rules (paper: 5839 rules, 36% counting)."""
    return _network_suite(
        "Snort",
        total,
        seed,
        supported_frac=5315 / 5839,
        counting_frac=1934 / 5315,
        ambiguous_frac=282 / 1934,
        description="network intrusion detection payload patterns",
    )


def suricata_like(total: int = 448, seed: int = 0x5421) -> Suite:
    """Suricata-like IDS rules (paper: 4480 rules, 40% counting)."""
    return _network_suite(
        "Suricata",
        total,
        seed,
        supported_frac=3728 / 4480,
        counting_frac=1510 / 3728,
        ambiguous_frac=246 / 1510,
        description="network threat-detection payload patterns",
    )


def protomata_like(total: int = 234, seed: int = 0x9607) -> Suite:
    """PROSITE-style protein motifs (paper: 2338 rules, all-ambiguous
    counting: every gap is an ``x(m,n)`` wildcard over the amino
    alphabet, and wildcard bodies under an unanchored prefix are always
    counter-ambiguous)."""
    rng = random.Random(seed)
    counting_frac = 1675 / 2338
    fractions = {"count-ambiguous": counting_frac, "plain": 1.0 - counting_frac}
    def element() -> str:
        if rng.random() < 0.6:
            return rng.choice(_AMINO)
        size = rng.randint(2, 5)
        members = "".join(rng.sample(_AMINO, size))
        if rng.random() < 0.2:
            return f"[^{members}]"
        return f"[{members}]"

    def gap() -> str:
        lo, hi = _bound(rng, "motif")
        # PROSITE gaps follow one- or two-element anchors, so a gap
        # wider than its anchor is counter-ambiguous under the
        # unanchored Sigma* prefix; hi >= 3 guarantees that here.
        hi = max(hi, 3)
        lo = min(lo, hi)
        return f".{{{lo},{hi}}}" if lo != hi else f".{{{hi}}}"

    rules: list[Rule] = []
    for i, category in enumerate(_take(rng, total, fractions)):
        elements: list[str] = [element()]
        if category == "count-ambiguous":
            # real motifs interleave short anchors with x(m,n) gaps,
            # starting the first gap right after the leading anchor
            # (e.g. `C-x(2,4)-C-x(3)-[LIVMFYWC]`)
            elements.append(gap())
            for _ in range(rng.randint(2, 8)):
                if rng.random() < 0.25:
                    elements.append(gap())
                else:
                    elements.append(element())
        else:
            for _ in range(rng.randint(3, 9)):
                elements.append("." if rng.random() < 0.2 else element())
        rules.append(Rule(f"protomata:{i}", "".join(elements), category))
    return Suite(
        "Protomata",
        rules,
        input_style="protein",
        description="PROSITE-style protein motifs with x(m,n) gaps",
    )


def spamassassin_like(total: int = 379, seed: int = 0x57A4) -> Suite:
    """SpamAssassin-like mail-body rules (paper: 3786 rules, 12%
    counting, 61% of counting ambiguous)."""
    rng = random.Random(seed)
    supported_frac = 3690 / 3786
    counting = supported_frac * (459 / 3690)
    ambiguous = counting * (279 / 459)
    fractions = {
        "plain": supported_frac - counting,
        "count-unambiguous": counting - ambiguous,
        "count-ambiguous": ambiguous,
        "unsupported": 1.0 - supported_frac,
    }
    spam_words = (
        "free money offer click here winner casino viagra prize credit "
        "urgent deal bonus cheap limited guarantee unsubscribe"
    ).split()
    rules: list[Rule] = []
    for i, category in enumerate(_take(rng, total, fractions)):
        if category == "plain":
            word = rng.choice(spam_words)
            if rng.random() < 0.4:
                pattern = "(?i)" + word
            elif rng.random() < 0.5:
                pattern = word + r"[!.]*" + rng.choice(spam_words)
            else:
                pattern = "(" + "|".join(rng.sample(spam_words, 2)) + ")"
        elif category == "count-unambiguous":
            # obfuscation gaps: `v\W{1,3}i\W{1,3}a...` (letter guards are
            # disjoint from the \W gap body)
            word = rng.choice(spam_words)[: rng.randint(4, 6)]
            lo, hi = 1, rng.randint(2, 4)
            pattern = (f"\\W{{{lo},{hi}}}").join(word)
        elif category == "count-ambiguous":
            lo, hi = _bound(rng, "mail")
            hi = max(hi, 2)
            lo = min(lo, hi)
            a, b = rng.sample(spam_words, 2)
            if rng.random() < 0.5:
                pattern = f"{a}.{{{lo},{hi}}}{b}"
            else:
                pattern = f"[0-9]{{{max(2, min(lo, 4))},{hi}}}%? ?(off|free)"
        else:
            pattern = _unsupported_rule(rng)
        rules.append(Rule(f"spam:{i}", pattern, category))
    return Suite(
        "SpamAssassin",
        rules,
        input_style="mail",
        description="anti-spam mail-body patterns with obfuscation gaps",
    )


def clamav_like(total: int = 2009, seed: int = 0xC1A3) -> Suite:
    """ClamAV-like virus signatures (paper: 100472 sigs, 4.8% counting,
    75% of counting ambiguous).  Signatures are hex byte strings with
    ``{n-m}``-style wildcard gaps, here rendered as ``.{n,m}``."""
    rng = random.Random(seed)
    counting = 4823 / 100472
    ambiguous = counting * (3626 / 4823)
    fractions = {
        "plain": 1.0 - counting,
        "count-unambiguous": counting - ambiguous,
        "count-ambiguous": ambiguous,
    }

    def hex_bytes(k: int) -> str:
        return "".join(f"\\x{rng.randrange(256):02x}" for _ in range(k))

    rules: list[Rule] = []
    for i, category in enumerate(_take(rng, total, fractions)):
        if category == "plain":
            pattern = hex_bytes(rng.randint(6, 24))
        elif category == "count-unambiguous":
            lo, hi = _bound(rng, "virus")
            hi = max(hi, 2)
            lo = max(1, min(lo, hi))
            pattern = f"{hex_bytes(4)}\\x00[^\\x00]{{{lo},{hi}}}{hex_bytes(2)}"
        else:
            lo, hi = _bound(rng, "virus")
            hi = max(hi, 2)
            lo = min(lo, hi)
            pattern = f"{hex_bytes(rng.randint(3, 8))}.{{{lo},{hi}}}{hex_bytes(rng.randint(3, 8))}"
        rules.append(Rule(f"clamav:{i}", pattern, category))
    return Suite(
        "ClamAV",
        rules,
        input_style="binary",
        description="virus byte signatures with wildcard gaps",
    )


def module_heavy(total: int = 24, seed: int = 0x40D5) -> Suite:
    """Every rule carries a ``{n,m}`` bounded repeat that lowers to a
    counter or bit-vector module (``unfold_threshold=0``) -- the
    workload for measuring in-sweep module execution (the repository
    benchmark's ``modules24_dense``).

    Unlike the application suites this one is *pure* module pressure:
    guarded runs (counters), wildcard/class gaps (bit vectors), and
    ALL_INPUT gap heads, all with one-STE bodies so the entire suite
    is accepted by the block scanner's static sweep analysis (an
    asserted property, not luck).
    """
    rng = random.Random(seed)
    rules: list[Rule] = []
    for i in range(total):
        lo = rng.randint(2, 10)
        hi = lo + rng.randint(1, 14)
        roll = rng.random()
        if roll < 0.35:
            # guarded run: `lit [^s] s{lo,hi}` -> absorbable counter
            guard, run = rng.choice(_GUARDED_RUNS)
            prefix = _literal(rng) if rng.random() < 0.5 else ""
            pattern = f"{prefix}{guard}{run}{{{lo},{hi}}}"
            category = "count-unambiguous"
        elif roll < 0.7:
            # wildcard gap between contents -> absorbable bit vector
            pattern = f"{_literal(rng)}.{{{lo},{hi}}}{_literal(rng)}"
            category = "count-ambiguous"
        elif roll < 0.9:
            # bare class run -> counter with a class body
            cls = rng.choice((r"[0-9]", r"[A-Za-z0-9+/]", r"[a-z ]"))
            pattern = f"{cls}{{{lo},{hi}}}{rng.choice(('!', ';', '='))}"
            category = "count-ambiguous"
        else:
            # ALL_INPUT gap head: `.{lo,hi} lit`
            pattern = f".{{{lo},{hi}}}{_literal(rng)}"
            category = "count-ambiguous"
        rules.append(Rule(f"modheavy:{i}", pattern, category))
    return Suite(
        "ModuleHeavy",
        rules,
        input_style="network",
        description="all-counting suite exercising counter/bit-vector modules",
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[..., Suite]] = {
    "Snort": snort_like,
    "Suricata": suricata_like,
    "Protomata": protomata_like,
    "SpamAssassin": spamassassin_like,
    "ClamAV": clamav_like,
}

#: The four suites used in the hardware evaluation (Figures 9/10
#: exclude ClamAV, as does the paper).
APPLICATION_SUITES = ("Protomata", "SpamAssassin", "Snort", "Suricata")


def suite_by_name(name: str, total: int | None = None, seed: int | None = None) -> Suite:
    factory = _FACTORIES[name]
    kwargs = {}
    if total is not None:
        kwargs["total"] = total
    if seed is not None:
        kwargs["seed"] = seed
    return factory(**kwargs)


def all_suites(scale: float = 1.0) -> list[Suite]:
    """All five suites at ``scale`` times their default sizes."""
    suites = []
    for name, factory in _FACTORIES.items():
        default_total = factory.__defaults__[0]
        suites.append(factory(total=max(10, round(default_total * scale))))
    return suites
