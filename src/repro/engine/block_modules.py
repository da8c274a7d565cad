"""Lane-wise counter / bit-vector execution for the block scanner.

The scalar interpreter processes each module one byte at a time:
counters hold one register (reset-wins semantics), bit vectors hold a
shift register of token ages (the counting-set representation of
:mod:`repro.nca.counting_sets`, Section 3.2.1).  Those per-byte
recurrences have *closed forms over a block* once the module's input
signals are available as boolean lanes, which is exactly what the
block sweep computes for every STE anyway:

* **counter**, free-standing -- ``count[t]`` follows ``fst`` pulses by
  prefix sums: with ``C = cumsum(fst)`` and ``r[t]`` the latest reset
  position (a ``fst`` pulse arriving with a latched ``pre``),
  ``count[t] = C[t] - C[r[t]] + 1`` after a reset and
  ``carry + C[t]`` before any; ``en_out``/``en_fst`` are then pure
  elementwise tests against ``[lo, hi]`` on ``lst`` cycles.
* **bit vector** -- the shift register holds the counting set and
  nothing else, so the lane form follows its tokens, not the bound: a
  token that came in at position ``e`` (a ``body`` signal with latched
  ``pre``) holds value ``t - e + 1`` at ``t`` and lives on ``[e, d]``,
  ``d`` the earlier of ``e + hi - 1`` and the last position before the
  ``body`` run breaks (one ``searchsorted`` into the lane's break
  positions).  ``en_out`` is the union of ``[e + lo - 1, d]``,
  ``en_body`` of ``[e, min(d, e + hi - 2)]``; :func:`_paint` turns
  each union into a lane at a cost of O(tokens + painted positions).
  Carried shift-register bits are virtual tokens at negative
  positions.  An absorbed counter is the same picture with the latest
  token superseding the one before it.

The catch is wiring: emitted module fragments always close a one-STE
feedback loop (``en_fst`` re-arms the counter body, ``en_body`` holds
the bit-vector body STE), so module lanes and STE lanes are mutually
recursive.  :func:`analyze` recognizes those loop shapes structurally
-- the *absorbed* templates below -- and collapses each loop into a
single node whose closed form covers both the module and its body
STE.  What remains must be acyclic (same-cycle module signals plus
next-cycle enables, jointly); any other feedback (multi-STE counter
bodies, nested counting, STE cycles longer than a self-loop) rejects
the whole tables and the scanner feeds them to its embedded scalar
interpreter instead.  Module-free tables are the degenerate case: no
plans, and ``steps`` is the STE topological order.

All closed forms reproduce the interpreter bit for bit: reports,
``ActivityStats`` (including per-module op counts and weighted
bit-vector ops), and the carried scalar state (enable mask, counter
registers, shift registers, latched ``pre``, dirty set) written back
at each block boundary, so the embedded interpreter's state is valid
wherever a stream is cut.
"""

from __future__ import annotations

from typing import Optional

from .tables import (
    KIND_BIT_VECTOR,
    KIND_COUNTER,
    PORT_BODY,
    PORT_FST,
    PORT_LST,
    PORT_PRE,
    SRC_AUX,
    SRC_OUT,
    TransitionTables,
    module_wiring,
)

__all__ = ["ModulePlan", "ModuleProgram", "analyze", "eval_module", "MAX_VECTOR_SPAN"]

#: Largest module span (``hi``) the lane evaluator accepts.  No lane
#: scales with ``hi``, but every block boundary re-admits up to ``hi``
#: carried tokens one by one; spans beyond this are absurd for real
#: rulesets (the hardware bit vector is a few hundred bits).
MAX_VECTOR_SPAN = 1 << 16


class ModulePlan:
    """One module's vector-execution recipe (see :func:`analyze`)."""

    __slots__ = (
        "index",
        "kind",
        "lo",
        "hi",
        "all_input",
        "weight",
        "reports",
        "report_index",
        "absorbed",
        "fst_stes",
        "fst_mods",
        "lst_stes",
        "lst_mods",
        "body_stes",
        "body_mods",
        "pre_stes",
        "pre_mods",
        "out_targets",
        "aux_targets",
    )


class ModuleProgram:
    """Combined STE+module evaluation order for one tables object.

    ``steps`` interleaves ``(0, ste_index)`` and ``(1, module_index)``
    entries in dependency order; ``absorbed_of`` maps each body STE
    folded into a module's closed form to that module; ``mod_preds``
    lists, per non-absorbed STE, the ``(module, SRC_*)`` outputs that
    enable it (the next-cycle analogue of ``succ_masks``).
    """

    __slots__ = ("plans", "steps", "absorbed_of", "mod_preds")


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _try_absorb(
    tables: TransitionTables,
    plan: ModulePlan,
    preds: list[list[int]],
    mod_drivers: list[list[tuple[int, int]]],
    has_self: list[bool],
    always_eff: list[bool],
    start_flag: list[bool],
) -> Optional[int]:
    """The absorbed-loop templates.

    A module qualifies when its auxiliary output re-arms exactly one
    non-always STE ``s`` that is, in turn, the module's only body
    (bit vector) or fst+lst (counter) driver, and ``s`` is enabled by
    precisely the same sources that pulse the module's ``pre`` -- the
    shape :mod:`repro.compiler.emit` produces for every ``Sym``-body
    repetition.  Then ``s``'s occupancy and the module's outputs share
    one closed form and the feedback edge disappears from the graph.
    """
    m = plan.index
    aux_mask = tables.aux_ste_masks[m]
    if aux_mask == 0 or aux_mask & (aux_mask - 1):
        return None  # need exactly one re-armed STE
    s = aux_mask.bit_length() - 1
    if always_eff[s] or has_self[s]:
        return None
    if tables.aux_module_hooks[m]:
        return None
    if plan.all_input:
        return None  # ALL_INPUT loops pair with an always body STE
    if start_flag[s] != tables.module_initial_pre[m]:
        return None
    hooks = tables.ste_module_hooks[s] or ()
    if plan.kind == KIND_BIT_VECTOR:
        if set(hooks) != {(m, PORT_BODY)}:
            return None
        if plan.body_stes != (s,) or plan.body_mods:
            return None
    else:
        if set(hooks) != {(m, PORT_FST), (m, PORT_LST)}:
            return None
        if plan.fst_stes != (s,) or plan.lst_stes != (s,):
            return None
        if plan.fst_mods or plan.lst_mods:
            return None
    # s's enable sources must equal the module's `pre` sources, so
    # "s came in with a latched pre" is exactly "some upstream source
    # fired last cycle" -- the closed forms lean on that equivalence.
    if set(preds[s]) != set(plan.pre_stes):
        return None
    s_mod_drivers = set(mod_drivers[s])
    s_mod_drivers.discard((m, SRC_AUX))
    if s_mod_drivers != set(plan.pre_mods):
        return None
    return s


def analyze(
    tables: TransitionTables,
    preds: list[list[int]],
    succ_lists: list[list[int]],
    has_self: list[bool],
    always_eff: list[bool],
    start_flag: list[bool],
) -> Optional[ModuleProgram]:
    """Build the combined STE+module program, or ``None`` when these
    tables cannot run inside vector sweeps."""
    n = tables.n_stes
    nm = tables.n_modules
    wiring = module_wiring(tables)

    plans: list[ModulePlan] = []
    for m in range(nm):
        plan = ModulePlan()
        plan.index = m
        plan.kind = tables.module_kinds[m]
        plan.lo = tables.module_lo[m]
        plan.hi = tables.module_hi[m]
        if plan.lo < 1 or plan.hi < plan.lo or plan.hi > MAX_VECTOR_SPAN:
            return None
        plan.all_input = tables.module_all_input[m]
        plan.weight = tables.bv_weights[m]
        plan.reports = tables.module_reports[m]
        plan.report_index = tables.module_report_index[m]
        sd = wiring.ste_drivers[m]
        md = wiring.module_drivers[m]
        plan.fst_stes = sd.get(PORT_FST, ())
        plan.lst_stes = sd.get(PORT_LST, ())
        plan.body_stes = sd.get(PORT_BODY, ())
        plan.pre_stes = sd.get(PORT_PRE, ())
        plan.fst_mods = md.get(PORT_FST, ())
        plan.lst_mods = md.get(PORT_LST, ())
        plan.body_mods = md.get(PORT_BODY, ())
        plan.pre_mods = md.get(PORT_PRE, ())
        plans.append(plan)

    # mod_drivers[s]: the (module, SRC_*) outputs that enable STE s
    mod_drivers: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m in range(nm):
        for w in _bits(tables.out_ste_masks[m]):
            mod_drivers[w].append((m, SRC_OUT))
        for w in _bits(tables.aux_ste_masks[m]):
            mod_drivers[w].append((m, SRC_AUX))

    absorbed_of: dict[int, int] = {}
    for plan in plans:
        s = _try_absorb(
            tables, plan, preds, mod_drivers, has_self, always_eff, start_flag
        )
        plan.absorbed = s
        if s is not None:
            if s in absorbed_of:
                return None  # two modules claiming one body STE
            absorbed_of[s] = plan.index

    # Remaining feedback (aux re-arming a live STE outside a template)
    # would make the sweep order-dependent; the combined topological
    # sort below is the single gate -- templates merely removed the
    # loop edges they proved closed-form-safe.
    for plan in plans:
        if plan.absorbed is not None:
            continue
        for s in _bits(tables.aux_ste_masks[plan.index]):
            if not always_eff[s]:
                return None

    # -- combined dependency graph ------------------------------------------
    # Node ids: STE i -> i (skipping absorbed STEs), module m -> n + m.
    # Edges point driver -> dependent; enables into always-on STEs add
    # no lane dependency (their occupancy is plain membership).
    total = n + nm

    def node_of_ste(i: int) -> int:
        owner = absorbed_of.get(i)
        return i if owner is None else n + owner

    present = [True] * total
    for s in absorbed_of:
        present[s] = False

    adj: list[list[int]] = [[] for _ in range(total)]
    indeg = [0] * total

    def add_edge(a: int, b: int) -> None:
        if a != b:
            adj[a].append(b)
            indeg[b] += 1

    for u in range(n):
        src = node_of_ste(u)
        for w in succ_lists[u]:
            if not always_eff[w]:
                add_edge(src, node_of_ste(w))
        hooks = tables.ste_module_hooks[u]
        if hooks is not None:
            for m, _port in hooks:
                add_edge(src, n + m)
    for m in range(nm):
        src = n + m
        for w in _bits(tables.out_ste_masks[m] | tables.aux_ste_masks[m]):
            if not always_eff[w]:
                add_edge(src, node_of_ste(w))
        for hooks in (tables.out_module_hooks[m], tables.aux_module_hooks[m]):
            if hooks is not None:
                for m2, _port in hooks:
                    add_edge(src, n + m2)

    n_present = sum(present)
    queue = [v for v in range(total) if present[v] and indeg[v] == 0]
    order: list[int] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != n_present:
        return None  # genuine cycle: nested counting / odd wiring

    # Targets each module must wake downstream (pruning seeds); the
    # absorbed STE's own successors are handled through occ[s].
    for plan in plans:
        m = plan.index
        plan.out_targets = tuple(
            w for w in _bits(tables.out_ste_masks[m]) if not always_eff[w]
        )
        plan.aux_targets = tuple(
            w
            for w in _bits(tables.aux_ste_masks[m])
            if not always_eff[w] and w != plan.absorbed
        )

    mod_preds: list[tuple[tuple[int, int], ...]] = [()] * n
    for w in range(n):
        if mod_drivers[w] and w not in absorbed_of:
            mod_preds[w] = tuple(mod_drivers[w])

    program = ModuleProgram()
    program.plans = plans
    program.steps = [
        (0, v) if v < n else (1, v - n) for v in order
    ]
    program.absorbed_of = absorbed_of
    program.mod_preds = mod_preds
    return program


# -- per-block lane evaluation ---------------------------------------------


def _gather(np, stes, mods, occ, mod_out, mod_aux):
    """OR together driver lanes; ``None`` when every driver is idle.
    The returned array may alias a driver lane -- callers treat it as
    read-only."""
    lane = None
    owned = False
    for u in stes:
        lu = occ[u]
        if lu is None:
            continue
        if lane is None:
            lane = lu
        elif owned:
            np.logical_or(lane, lu, out=lane)
        else:
            lane = np.logical_or(lane, lu)
            owned = True
    for j, src in mods:
        lj = mod_out[j] if src == SRC_OUT else mod_aux[j]
        if lj is None:
            continue
        if lane is None:
            lane = lj
        elif owned:
            np.logical_or(lane, lj, out=lane)
        else:
            lane = np.logical_or(lane, lj)
            owned = True
    return lane


def _settle(scalar, m: int, all_input: bool, pre_last: bool) -> None:
    """Block-boundary `pre`/dirty write-back shared by every path.

    The interpreter's latched ``pre`` lives exactly one cycle, so after
    a block only the last position's pulse (or ALL_INPUT re-arming)
    survives; a non-resting latch is what keeps a module on the
    interpreter's dirty list."""
    pre = all_input or pre_last
    scalar._pre[m] = pre
    if pre and not all_input:
        scalar._dirty.add(m)
    else:
        scalar._dirty.discard(m)


def _nonzero_or_none(np, lane):
    if lane is not None and not lane.any():
        return None
    return lane


def eval_module(np, plan, lanes, scalar):
    """Evaluate one module over a block.

    ``lanes`` is the sweep's per-block context: ``blen``, the ``occ`` /
    ``mod_out`` / ``mod_aux`` lanes published so far, ``memb_for(s)`` /
    ``breaks_for(s)`` (an absorbed body STE's membership lane and its
    sorted break positions, cached per class row) and the stats deltas
    ``acc = [counter_ops, bv_ops, bv_weighted]``.

    Returns ``(s_occ, out_lane, aux_lane, pre_last)``: the absorbed
    body STE's occupancy (``None`` for free-standing modules or when it
    never fires), the ``en_out`` / auxiliary output lanes (``None``
    when silent), and whether ``pre`` was pulsed on the block's last
    position.  Module registers / dirty bookkeeping are written back to
    ``scalar`` directly.
    """
    m = plan.index
    occ, mod_out, mod_aux = lanes.occ, lanes.mod_out, lanes.mod_aux
    prep = _gather(np, plan.pre_stes, plan.pre_mods, occ, mod_out, mod_aux)
    pre_last = prep is not None and bool(prep[-1])
    pre0 = scalar._pre[m]

    if plan.kind == KIND_COUNTER:
        if plan.absorbed is not None:
            return _eval_counter_absorbed(np, plan, lanes, prep, pre0, scalar, pre_last)
        return _eval_counter_free(np, plan, lanes, prep, pre0, scalar, pre_last)
    if plan.absorbed is not None:
        body = lanes.memb_for(plan.absorbed)
    else:
        body = _gather(np, plan.body_stes, plan.body_mods, occ, mod_out, mod_aux)
    return _eval_bv(np, plan, lanes, body, prep, pre0, scalar, pre_last)


def _pre_lane(np, blen, prep, pre0):
    """The `pre` value *consumed* at each position: latched one cycle
    earlier (carry at position 0)."""
    lane = np.zeros(blen, dtype=bool)
    lane[0] = pre0
    if prep is not None:
        lane[1:] = prep[:-1]
    return lane


def _token_runs(np, e, hi, brk):
    """First and last block position each token of ``e`` holds: from
    where it came in (virtual tokens, negative ``e``, from the block's
    first position) until ``hi - 1`` steps on or just before its body
    run breaks.  ``brk`` is the body lane's sorted break positions plus
    the sentinel ``blen``."""
    first = np.maximum(e, 0)
    return first, np.minimum(e + (hi - 1), brk[np.searchsorted(brk, first)] - 1)


def _paint(np, blen, starts, ends):
    """The union of the closed intervals ``[starts[i], ends[i]]`` as a
    bool lane, ``None`` when it is empty.  Both arrays are
    non-decreasing and inside the block; members may be empty
    (``end < start``), touch or overlap.  Costs O(intervals + painted
    positions), never O(block)."""
    starts = starts.copy()
    np.maximum(starts[1:], ends[:-1] + 1, out=starts[1:])  # make disjoint
    lens = np.maximum(ends - starts + 1, 0)
    stops = lens.cumsum()
    if not (len(stops) and stops[-1]):
        return None
    lane = np.zeros(blen, dtype=bool)
    lane[np.arange(stops[-1]) + (starts - (stops - lens)).repeat(lens)] = True
    return lane


def _eval_counter_free(np, plan, lanes, prep, pre0, scalar, pre_last):
    """Free-standing counter: inputs are ordinary lanes, the register
    follows ``fst`` pulses by prefix sums with reset-wins gathers."""
    m = plan.index
    blen, acc = lanes.blen, lanes.acc
    occ, mod_out, mod_aux = lanes.occ, lanes.mod_out, lanes.mod_aux
    fst = _gather(np, plan.fst_stes, plan.fst_mods, occ, mod_out, mod_aux)
    lst = _gather(np, plan.lst_stes, plan.lst_mods, occ, mod_out, mod_aux)
    c_in = scalar._counts[m]
    if fst is None and lst is None:
        _settle(scalar, m, plan.all_input, pre_last)
        return None, None, None, pre_last

    if fst is None:
        # register untouched: `lst` only reads it
        out = lst if plan.lo <= c_in <= plan.hi else None
        aux = lst if c_in < plan.hi else None
        acc[0] += int(np.count_nonzero(lst))
    else:
        if plan.all_input:
            resets = fst  # `pre` re-armed every cycle: every fst resets
        else:
            resets = fst & _pre_lane(np, blen, prep, pre0)
        C = np.cumsum(fst)
        idx = np.arange(blen)
        r = np.maximum.accumulate(np.where(resets, idx, -1))
        unreset = r < 0
        count = C - C[np.maximum(r, 0)] + 1
        if unreset.any():
            count[unreset] = C[unreset] + c_in
        scalar._counts[m] = int(count[-1])
        if lst is None:
            out = aux = None
            acc[0] += int(np.count_nonzero(fst))
        else:
            out = lst & (count >= plan.lo) & (count <= plan.hi)
            aux = lst & (count < plan.hi)
            acc[0] += int(np.count_nonzero(fst | lst))
    _settle(scalar, m, plan.all_input, pre_last)
    return None, _nonzero_or_none(np, out), _nonzero_or_none(np, aux), pre_last


def _eval_counter_absorbed(np, plan, lanes, prep, pre0, scalar, pre_last):
    """Counter fused with its single body STE ``s``.

    ``s`` holds (and the counter counts) from an entry -- a `pre` pulse
    landing on a membership run -- until the run breaks, ``hi``
    positions pass or the next entry supersedes it; the register is
    the entry's age.  The carried register is a virtual entry ``c_in``
    positions before the block, gated on ``s``'s carried enable bit (a
    carried enable implies ``count < hi``: it came from ``en_fst``,
    which fires only below ``hi``).
    """
    m = plan.index
    s = plan.absorbed
    lo, hi = plan.lo, plan.hi
    blen = lanes.blen
    enabled_bit = (scalar._enabled >> s) & 1
    if prep is None and not pre0 and not enabled_bit:
        _settle(scalar, m, False, pre_last)
        return None, None, None, pre_last

    memb = lanes.memb_for(s)
    e = np.flatnonzero(memb & _pre_lane(np, blen, prep, pre0))
    if enabled_bit and not pre0 and memb[0]:
        e = np.concatenate(([-scalar._counts[m]], e))
    if not len(e):
        _settle(scalar, m, False, pre_last)
        return None, None, None, pre_last

    first, g = _token_runs(np, e, hi, lanes.breaks_for(s))
    np.minimum(g[:-1], e[1:] - 1, out=g[:-1])  # the latest entry supersedes
    s_occ = _paint(np, blen, first, g)
    if s_occ is None:
        _settle(scalar, m, False, pre_last)
        return None, None, None, pre_last
    out = _paint(np, blen, np.maximum(e + (lo - 1), 0), g)
    aux = _paint(np, blen, first, np.minimum(g, e + (hi - 2)))
    lanes.acc[0] += int(np.count_nonzero(s_occ))  # fst and lst pulse together
    # real entries always hold their own position, so the last interval
    # is the last live one
    scalar._counts[m] = int(g[-1] - e[-1]) + 1
    _settle(scalar, m, False, pre_last)
    return s_occ, out, aux, pre_last


def _eval_bv(np, plan, lanes, body, prep, pre0, scalar, pre_last):
    """Bit vector, fused or free-standing.

    ``body`` is the body-signal lane: the absorbed body STE's symbol
    membership (its occupancy *is* the token-aliveness lane), or the
    gathered body-port drivers.  Tokens are the positions where a
    ``body`` signal meets a latched ``pre``, plus the carried
    shift-register bits as virtual tokens before the block; the three
    lanes are painted from the tokens' intervals.
    """
    m = plan.index
    lo, hi = plan.lo, plan.hi
    blen = lanes.blen
    acc = lanes.acc
    absorbed = plan.absorbed is not None
    v_in = scalar._bv[m]
    if body is None:
        # no body signals at all: a carried value dies (one op) at the
        # first position, exactly like the interpreter's dirty pass
        if v_in:
            acc[1] += 1
            acc[2] += plan.weight
            scalar._bv[m] = 0
        _settle(scalar, m, plan.all_input, pre_last)
        return None, None, None, pre_last
    if absorbed and v_in == 0 and prep is None and not pre0:
        _settle(scalar, m, False, pre_last)
        return None, None, None, pre_last

    if plan.all_input:
        e = np.flatnonzero(body)
    else:
        e = np.flatnonzero(body & _pre_lane(np, blen, prep, pre0))
    if v_in == 0 and not len(e):
        if not absorbed:
            # body pulses but no token ever comes in: each pulse is still
            # a (shift-of-zero) op in the interpreter's accounting
            pulses = int(np.count_nonzero(body))
            acc[1] += pulses
            acc[2] += plan.weight * pulses
        # absorbed: the body STE only runs while a token holds it, so
        # with no tokens there are no body signals (and no ops) at all
        scalar._bv[m] = 0
        _settle(scalar, m, plan.all_input, pre_last)
        return None, None, None, pre_last

    if v_in:
        # bit j is value j+1 at the last position before the block
        e = np.concatenate(([-1 - j for j in reversed(_bits(v_in))], e))
    if absorbed:
        brk = lanes.breaks_for(plan.absorbed)
    else:
        brk = np.append(np.flatnonzero(~body), blen)
    first, d = _token_runs(np, e, hi, brk)
    nz = _paint(np, blen, first, d)
    out = _paint(np, blen, np.maximum(e + (lo - 1), 0), d)
    aux = _paint(np, blen, first, np.minimum(d, e + (hi - 2)))

    # one op per body signal or per carried-value decay step (for the
    # absorbed form the body STE's activity *is* the aliveness lane)
    stepped = np.zeros(blen, dtype=bool)
    stepped[0] = v_in != 0
    if nz is not None:
        stepped[1:] = nz[:-1]
    signals = nz if absorbed else body
    if signals is not None:
        stepped |= signals
    ops = int(np.count_nonzero(stepped))
    acc[1] += ops
    acc[2] += plan.weight * ops

    T = blen - 1
    v_out = 0
    for age in (T - e[d >= T]).tolist():
        v_out |= 1 << age  # bit = token age at T, less one
    scalar._bv[m] = v_out
    _settle(scalar, m, plan.all_input, pre_last)
    if v_out:
        scalar._dirty.add(m)
    return nz if absorbed else None, out, aux, pre_last
