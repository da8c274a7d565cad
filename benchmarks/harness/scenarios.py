"""The workload child: runs one workload's inputs through the program.

``run.py`` starts this file in a fresh process (its own session, so
everything it spawns can be reaped as one group), hands it a run
directory holding ``inputs.pkl``, and reads ``result.json`` back.  The
program is driven only through its public entry points; every span is
recorded here, around those calls.

Three scenario kinds share the set-up / timed-pass / verification
skeleton: ``session`` (in-process ``matcher.session()``), ``serve``
(``WorkerFleet`` + ``MatchClient`` connections, closed-loop passes then
an open-loop paced phase) and ``cluster`` (``LocalShardCluster`` +
``RemoteShardedMatcher``).
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import json
import math
import multiprocessing
import os
import pickle
import resource
import statistics
import sys
import time
from array import array
from time import perf_counter

from catalog import SRC

if SRC not in sys.path:
    sys.path.insert(0, SRC)

from measure import (  # noqa: E402
    Tracer,
    digest,
    percentile,
    position_medians,
    proc_cpu_seconds,
    proc_status_kb,
)

from repro.analysis import analyze  # noqa: E402
from repro.compiler.cache import load_artifact, save_artifact  # noqa: E402
from repro.compiler.mapping import map_network  # noqa: E402
from repro.compiler.passes import run_passes  # noqa: E402
from repro.compiler.pipeline import compile_ruleset  # noqa: E402
from repro.engine.backends import resolve_backend  # noqa: E402
from repro.engine.parallel import ShardedMatcher  # noqa: E402
from repro.engine.tables import compile_tables, table_stats  # noqa: E402
from repro.matching import RulesetMatcher  # noqa: E402
from repro.regex.errors import RegexError  # noqa: E402
from repro.regex.parser import parse  # noqa: E402
from repro.regex.rewrite import simplify  # noqa: E402
from repro.rules import load_rules_text  # noqa: E402
from repro.serve import (  # noqa: E402
    LocalShardCluster,
    MatchClient,
    RemoteShardedMatcher,
    WorkerFleet,
)
from repro.serve.protocol import (  # noqa: E402
    Command,
    format_command,
    format_match,
    parse_command,
    parse_match,
)
from repro.session import Match, MultiStreamScanner  # noqa: E402

#: chunks of the untimed warm-up pass
WARMUP_CHUNKS = 4
#: untraced passes a traced run makes (enough for an overhead ratio)
TRACED_RUN_PASSES = 2
#: a send this far behind its schedule counts as late
LATE_SEND_SECONDS = 0.001


def chunked(data: bytes, size: int) -> list[bytes]:
    return [data[i:i + size] for i in range(0, len(data), size)]


class Checks:
    """Named pass/fail verdicts of the untimed verification."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(item["ok"] for item in self.items)


# -- building the matcher the way a user would ------------------------------
def build_matcher(inputs, cache_dir):
    """Rules text/suite -> ready matcher, through the public facade."""
    if inputs.rules_text is not None:
        loaded = load_rules_text(inputs.rules_text)
        matcher, _ = loaded.compile(cache_dir=cache_dir, **inputs.compile_options)
        return matcher
    return RulesetMatcher(inputs.patterns, cache_dir=cache_dir,
                          **inputs.compile_options)


def measure_setups(inputs, run_dir, checks, start, stop):
    """Cold then warm set-ups; returns ``(cold_s, warm_s, live, cache_dir)``.

    ``start(cache_dir)`` brings the system from nothing to "first byte
    accepted" and returns a handle; ``stop(handle)`` tears it down.
    Every cold start gets an empty cache directory; the warm starts
    reuse the last one and must leave its file set untouched (a cache
    hit writes nothing).  The last warm handle is returned live for the
    timed phase.  The previous set-up's objects are collected before the
    next clock starts: a compile beside a still-live 10k-STE network
    measures 25% slower, all of it the collector walking the old heap.
    """
    cold, warm = [], []
    cache_dir = None
    for index in range(inputs.cold_setups):
        cache_dir = os.path.join(run_dir, f"cache-{index}")
        os.makedirs(cache_dir)
        gc.collect()
        t0 = perf_counter()
        handle = start(cache_dir)
        cold.append(perf_counter() - t0)
        stop(handle)
        del handle
        checks.add(f"cold-{index}-wrote-cache", bool(os.listdir(cache_dir)))
    live = None
    for index in range(inputs.warm_setups):
        if live is not None:
            stop(live)
            live = None
        gc.collect()
        before = sorted(os.listdir(cache_dir))
        t0 = perf_counter()
        live = start(cache_dir)
        warm.append(perf_counter() - t0)
        checks.add(f"warm-{index}-cache-hit",
                   sorted(os.listdir(cache_dir)) == before,
                   "a warm start wrote to the cache")
    return cold, warm, live, cache_dir


# -- verification ------------------------------------------------------------
def compact(matches):
    """``(ends, rules)`` of one feed's matches, so the ``Match`` objects
    can go: a pass that kept half a million of them alive would be
    timing the collector walking the harness's heap, not the program."""
    return array("q", [m.end for m in matches]), [m.rule for m in matches]


def triples(outputs, stream=""):
    """Digest triples of a sequence of :func:`compact` outputs."""
    return ((stream, rule, end)
            for ends, rules in outputs for rule, end in zip(rules, ends))


def oracle_prefix_digest(matcher, data, engine, nbytes, chunk_bytes):
    """Digest of ``engine``'s matches over the first ``nbytes`` of ``data``.

    Only ``feed`` output is used: matches gated to end-of-data belong
    to the whole stream, not to a prefix of it.
    """
    session = matcher.session(engine=engine)
    found = []
    t0 = perf_counter()
    for chunk in chunked(data[:nbytes], chunk_bytes):
        found.append(compact(session.feed(chunk)))
    return digest(triples(found)), perf_counter() - t0


def verify_against_oracles(checks, matcher, data, inputs, fed):
    """Check ``fed`` (the :func:`compact` outputs of one pass's ``feed``
    calls) against both oracles: the scalar ``stream`` backend and the
    node-by-node ``reference`` simulator, neither of which is the
    backend under test, each on its prefix of ``inputs.oracle_bytes``.

    Returns the ``stream`` oracle's MB/s (a per-layer number).
    """
    stream_mbps = 0.0
    for engine, nbytes in zip(("stream", "reference"), inputs.oracle_bytes):
        nbytes = min(nbytes, len(data))
        want, seconds = oracle_prefix_digest(
            matcher, data, engine, nbytes, inputs.chunk_bytes)
        got = digest(t for t in triples(fed) if t[2] <= nbytes)
        checks.add(f"oracle-{engine}-{nbytes}", got == want,
                   f"got {got}, {engine} says {want}")
        if engine == "stream":
            stream_mbps = nbytes / seconds / 1e6
    return stream_mbps


def settle_passes(checks, digests, ops_per_pass, pinned):
    """Failed-operation count: a pass that disagrees fails all its ops."""
    reference = digests[0]
    if pinned is not None:
        checks.add("pinned-digest", list(reference) == list(pinned),
                   f"got {list(reference)}, pinned {list(pinned)}")
    if not checks.ok:
        # an oracle or the pin disagrees with every pass alike
        return ops_per_pass * len(digests)
    failed = 0
    for index, got in enumerate(digests):
        if got != reference:
            failed += ops_per_pass
            checks.add(f"pass-{index}-digest", False,
                       f"{got} differs from pass 0's {reference}")
    return failed


# -- per-layer probes (traced runs only) -------------------------------------
def compile_layers(inputs, cache_path, prime, run_dir, tracer):
    """Time each compile layer through its own public function.

    The sequence replays what the cold set-up did inside the facade.
    Returns ``(layers, layer_sum)``, the sum being that of the spans a
    cold set-up is made of (``setup.layer_sum_ratio`` holds it against a
    real one).
    """
    out = {}
    options = inputs.compile_options
    max_pairs = inspect.signature(RulesetMatcher).parameters["max_pairs"].default
    gc.collect()
    with tracer.span("setup.replay"):
        if inputs.rules_text is not None:
            with tracer.span("rules.load"):
                loaded = load_rules_text(inputs.rules_text)
            rules = loaded.rules
            counts = loaded.report.counts
            out["rules.accepted"] = counts["compiled"] + counts["rewritten"]
            out["rules.rejected"] = counts["rejected"]
        else:
            rules = inputs.patterns
            out["rules.accepted"] = len(rules)
            out["rules.rejected"] = 0
        # the two sub-steps of compile_ruleset worth naming, on their own
        parsed = []
        with tracer.span("regex.parse"):
            for rule in rules:
                try:
                    parsed.append(parse(rule[1]))
                except RegexError:
                    pass
        asts = [simplify(pattern.search_ast()) for pattern in parsed]
        with tracer.span("analysis.analyze"):
            for ast in asts:
                analyze(ast, max_pairs=max_pairs)
        with tracer.span("compiler.pipeline.compile_ruleset"):
            ruleset = compile_ruleset(
                rules, unfold_threshold=options.get("unfold_threshold", 0),
                max_pairs=max_pairs, opt_level=0)
        network = ruleset.network
        report = None
        if options.get("opt_level", 0):
            with tracer.span("compiler.passes.run_passes"):
                report = run_passes(network, options["opt_level"])
        with tracer.span("engine.tables.compile_tables"):
            tables = compile_tables(network)
        with tracer.span("compiler.mapping.map_network"):
            map_network(network)
        with tracer.span("engine.backends.make_scanner"):
            scanner = resolve_backend("auto", tables).make_scanner(tables)
        with tracer.span("engine.block.first_feed"):
            scanner.feed(prime)
        # the cache layer, on the artifact the real cold set-up wrote
        cache_dir, filename = os.path.split(cache_path)
        key = filename[len("ruleset-"):-len(".pkl")]
        with tracer.span("compiler.cache.load_artifact"):
            artifact = load_artifact(cache_dir, key)
        copy_dir = os.path.join(run_dir, "cache-copy")
        with tracer.span("compiler.cache.save_artifact"):
            save_artifact(artifact, copy_dir)

    total = tracer.total
    out["rules.load_s"] = total("rules.load")
    out["regex.parse_s"] = total("regex.parse")
    out["analysis.analyze_s"] = total("analysis.analyze")
    pipeline = total("compiler.pipeline.compile_ruleset")
    out["compiler.pipeline.compile_ruleset_s"] = pipeline
    out["compiler.emit.self_s"] = max(
        0.0, pipeline - out["regex.parse_s"] - out["analysis.analyze_s"])
    out["compiler.passes.run_passes_s"] = total("compiler.passes.run_passes")
    out["compiler.passes.merged_stes"] = report.merged_stes if report else 0
    out["compiler.passes.removed_nodes"] = report.removed_nodes if report else 0
    out["engine.tables.compile_tables_s"] = total("engine.tables.compile_tables")
    stats = table_stats(tables)
    out["engine.tables.n_stes"] = stats.n_stes
    out["engine.tables.n_modules"] = stats.n_modules
    out["engine.tables.n_classes"] = stats.n_classes
    out["engine.tables.match_mask_bytes"] = stats.match_mask_bytes
    out["compiler.mapping.map_s"] = total("compiler.mapping.map_network")
    out["compiler.cache.save_s"] = total("compiler.cache.save_artifact")
    out["compiler.cache.load_s"] = total("compiler.cache.load_artifact")
    out["compiler.cache.artifact_bytes"] = os.path.getsize(cache_path)
    out["engine.backends.make_scanner_s"] = total("engine.backends.make_scanner")
    out["engine.block.first_feed_s"] = total("engine.block.first_feed")
    layer_sum = sum(out[name] for name in (
        "rules.load_s", "compiler.pipeline.compile_ruleset_s",
        "compiler.passes.run_passes_s", "engine.tables.compile_tables_s",
        "compiler.mapping.map_s", "compiler.cache.save_s",
        "engine.backends.make_scanner_s", "engine.block.first_feed_s"))
    return out, layer_sum


def feed_pass(new_session, chunks, tracer, layer):
    """One pass of ``chunks`` through a fresh session.

    ``new_session()`` opens it (``matcher.session`` in-process,
    ``RemoteShardedMatcher.session`` on the cluster); ``layer`` names
    the spans.  Returns ``(durations, outputs, session)``: one duration
    per ``feed`` call and a last one for ``finish``.  Their sum is the
    pass's wall -- the program does nothing between the calls, and the
    harness's bookkeeping there is not the program's time.
    """
    durations, outputs = [], []
    # a full collection first, so the collector's generation counters start
    # every pass alike: its pauses are then a property of the pass (on the
    # match-dense stream every 8th chunk pays a 35-50 ms full collection)
    # and land on the same chunks each time, where position medians keep
    # them; uncollected, the same pauses moved from pass to pass and the
    # medians dropped them, reading 25% faster than any single pass
    gc.collect()
    with tracer.span("pass"):
        session = new_session()
        for index, chunk in enumerate(chunks):
            with tracer.span(f"{layer}.feed", chunk=index):
                t0 = perf_counter()
                out = session.feed(chunk)
                durations.append(perf_counter() - t0)
            outputs.append(compact(out))
        with tracer.span(f"{layer}.finish"):
            t0 = perf_counter()
            out = session.finish()
            durations.append(perf_counter() - t0)
        outputs.append(compact(out))
    return durations, outputs, session


def timed_passes(new_session, chunks, inputs, options, layer):
    """Untraced passes until the run has measured enough.

    Returns ``(passes, digests, first)``: every pass's durations and
    digest, and the first pass's :func:`compact` outputs, which the
    verification needs event for event.
    """
    quiet = Tracer(enabled=False)
    feed_pass(new_session, chunks[:WARMUP_CHUNKS], quiet, layer)  # untimed
    passes, digests, first = [], [], None
    began = perf_counter()

    def enough():
        if options["trace"]:
            return len(passes) >= TRACED_RUN_PASSES
        return (len(passes) >= inputs.min_passes
                and perf_counter() - began >= options["seconds"])

    while not enough():
        # [:2] drops the finished session at once: kept until the next
        # pass returned, its report set made that pass 20% slower (the
        # collector walking half a million tuples of the harness's)
        durations, outputs = feed_pass(new_session, chunks, quiet, layer)[:2]
        passes.append(durations)
        digests.append(digest(triples(outputs)))
        if first is None:
            first = outputs
        del outputs
    return passes, digests, first


def pass_metrics(passes, nbytes, options):
    """``scan_mbps`` and the chunk latencies of equal passes.

    Each operation's duration is its median across the passes
    (:func:`measure.position_medians`); the pass time is their sum and
    the latency percentiles run over the ``feed`` positions.
    """
    ops = position_medians(passes)
    feeds_ms = [seconds * 1e3 for seconds in ops[:-1]]
    end_to_end = {"scan_mbps": nbytes / sum(ops) / 1e6,
                  "chunk_latency_ms_p50": percentile(feeds_ms, 0.5)}
    if not options["trace"]:  # a traced run makes too few passes for a tail
        end_to_end["chunk_latency_ms_p95"] = percentile(
            feeds_ms, 0.95, repeats=len(passes))
    samples = {
        "scan_mbps": [nbytes / sum(durations) / 1e6 for durations in passes],
        "chunk_latencies": len(feeds_ms) * len(passes),
    }
    worst_ms = max(max(durations[:-1]) for durations in passes) * 1e3
    return end_to_end, samples, sum(ops), worst_ms


def traced_session(matcher, tracer):
    """A fresh session whose backend scanners record child spans, so
    the session layer's self time is its span minus the backend's."""
    session = matcher.session()
    for scanner in session.scanners:
        scanner.feed = tracer.wrap("engine.block.feed", scanner.feed)
        scanner.finish = tracer.wrap("engine.block.finish", scanner.finish)
    return session


def scan_layers(matcher, chunks, tracer):
    """Scan-path layers of one traced in-process pass plus a raw
    backend pass over the same chunks; returns ``(layers, wall)``."""
    out = {}
    nbytes = sum(len(chunk) for chunk in chunks)
    durations, outputs, session = feed_pass(
        lambda: traced_session(matcher, tracer), chunks, tracer, "session")
    with tracer.span("matching.result"):
        result = session.result()
    busy = tracer.total("engine.block.feed") + tracer.total("engine.block.finish")
    feed_total = tracer.total("session.feed") + tracer.total("session.finish")
    self_s = (tracer.self_total("session.feed")
              + tracer.self_total("session.finish"))
    matches = sum(len(ends) for ends, _ in outputs)
    out["engine.block.feed_busy_s"] = busy
    out["session.feed_total_s"] = feed_total
    out["session.self_s"] = self_s
    out["session.matches"] = matches
    out["session.ns_per_match"] = self_s / matches * 1e9 if matches else 0.0
    out["matching.result_s"] = tracer.total("matching.result")
    scanner = session.scanners[0]
    sweep = getattr(scanner, "sweep_stats", None)
    out["engine.block.committed_blocks"] = sweep.committed_blocks if sweep else 0
    out["engine.block.rescans"] = sweep.rescans if sweep else 0
    out["engine.block.reenables"] = sweep.reenables if sweep else 0
    activity = scanner.stats
    out["engine.block.ste_activations"] = activity.ste_activations
    out["engine.block.counter_ops"] = activity.counter_ops
    out["engine.block.bit_vector_ops"] = activity.bit_vector_ops
    out["engine.block.reports"] = activity.reports
    # simulated hardware: modelled from the exact activity counters,
    # so it repeats bit for bit whatever the host does
    out["hardware.cost.area_mm2"] = matcher.resources().area_mm2
    out["hardware.cost.energy_nj_per_byte"] = result.energy_nj_per_byte
    # the backend alone: what the session layer's work is measured against
    tables = matcher.tables
    raw = resolve_backend("auto", tables).make_scanner(tables)
    with tracer.span("engine.block.raw_pass"):
        for chunk in chunks:
            raw.feed(chunk)
        raw.finish()
    out["engine.block.mbps"] = (
        nbytes / tracer.total("engine.block.raw_pass") / 1e6)
    return out, sum(durations)


def protocol_layers(stream_tag, events, feeds, served_wall):
    """Micro-time the wire codec on the workload's own lines."""
    sample = [Match(rule=rule, end=end, stream=stream_tag)
              for rule, end in events[:20000]] or [Match("r", 1, stream_tag)]
    t0 = perf_counter()
    lines = [format_match(match, 0) for match in sample]
    format_ns = (perf_counter() - t0) / len(sample) * 1e9
    t0 = perf_counter()
    for line in lines:
        parse_match(line)
    parse_ns = (perf_counter() - t0) / len(lines) * 1e9
    headers = [format_command(Command("FEED", stream_tag, 65536)).rstrip(b"\n")
               ] * 2000
    t0 = perf_counter()
    for header in headers:
        parse_command(header)
    command_ns = (perf_counter() - t0) / len(headers) * 1e9
    codec_s = (len(events) * (format_ns + parse_ns) + feeds * command_ns) / 1e9
    return {
        "serve.protocol.format_match_ns": format_ns,
        "serve.protocol.parse_match_ns": parse_ns,
        "serve.protocol.parse_command_ns": command_ns,
        "serve.protocol.est_share": codec_s / served_wall,
    }


def run_record(cold, warm, samples, end_to_end, peak_rss, attempted, failed,
               digests):
    """What every scenario reports of its untraced passes."""
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": list(digests[0]),
        "samples": {"setup_s": cold, "warm_start_s": warm, **samples},
        "end_to_end": {
            "setup_s": statistics.median(cold),
            "warm_start_s": statistics.median(warm),
            **end_to_end,
            "peak_rss_mb": peak_rss,
        },
    }


def children_pids():
    return [child.pid for child in multiprocessing.active_children()]


def children_hwm_mb():
    """Summed high-water RSS of this process's live worker children."""
    return sum((proc_status_kb(pid, "VmHWM") or 0) for pid in children_pids()) / 1024


def children_cpu_s():
    return sum((proc_cpu_seconds(pid) or 0.0) for pid in children_pids())


# -- scenario: in-process session ------------------------------------------
def run_session(inputs, options, tracer, checks):
    run_dir = options["run_dir"]
    data = inputs.streams[0]
    chunks = chunked(data, inputs.chunk_bytes)
    prime = inputs.prime

    def start(cache_dir):
        matcher = build_matcher(inputs, cache_dir)
        matcher.session().feed(prime)
        return matcher

    cold, warm, matcher, _ = measure_setups(
        inputs, run_dir, checks, start, stop=lambda matcher: None)
    checks.add("warm-compile-info", matcher.compile_info.cache_hit)

    passes, digests, first = timed_passes(
        matcher.session, chunks, inputs, options, "session")
    end_to_end, samples, wall, worst_ms = pass_metrics(passes, len(data), options)
    # the scanning process is this one; read before the oracles run in it
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stream_mbps = verify_against_oracles(
        checks, matcher, data, inputs, first[:-1])
    ops_per_pass = len(chunks) + 2  # open + feeds + finish
    failed = settle_passes(checks, digests, ops_per_pass, options["pinned"])

    result = run_record(cold, warm, samples, end_to_end, peak_rss,
                        ops_per_pass * len(digests), failed, digests)
    if options["trace"]:
        layers, traced_wall = scan_layers(matcher, chunks, tracer)
        cache_path = matcher.compile_info.cache_path
        del matcher  # the replay below must not compile beside a live heap
        # the set-up the replay is held against is made here, in the
        # process as it is now: after the passes and the oracles the same
        # compile measures up to 30% slower than at the start of the run
        replay_dir = os.path.join(run_dir, "cache-replay")
        os.makedirs(replay_dir)
        gc.collect()
        t0 = perf_counter()
        start(replay_dir)
        whole = perf_counter() - t0
        compiled, layer_sum = compile_layers(
            inputs, cache_path, prime, run_dir, tracer)
        layers.update(compiled)
        layers["engine.scanner.mbps"] = stream_mbps
        layers["chunk_latency_ms_max"] = worst_ms
        layers["setup.layer_sum_ratio"] = layer_sum / whole
        layers["trace.overhead_ratio"] = traced_wall / wall
        result["per_layer"] = layers
    return result


# -- scenario: WorkerFleet + MatchClient -------------------------------------
async def _connect_and_prime(address, count, prime):
    clients = []
    try:
        for index in range(count):
            client = await MatchClient.connect(*address, retries=5)
            clients.append(client)
            await client.open(f"prime-c{index}")
            await client.feed(f"prime-c{index}", prime)
            await client.ping()
    except BaseException:
        for client in clients:
            await client.aclose()
        raise
    return clients


async def _quit_all(clients):
    for client in clients:
        try:
            await asyncio.wait_for(client.quit(), timeout=5.0)
        except Exception:  # noqa: BLE001 - tearing down; hang up regardless
            await client.aclose()


async def _closed_pass(clients, frames, label, tracer):
    """Closed loop: every connection pipelines its frames, then CLOSE."""
    tags = [f"{label}-c{index}" for index in range(len(clients))]
    root = tracer.begin("pass")
    for client, tag in zip(clients, tags):
        await client.open(tag)

    async def pump(index):
        client, tag = clients[index], tags[index]
        for number, frame in enumerate(frames[index]):
            span = tracer.begin("serve.client.feed", root,
                                frame=f"{index}:{number}")
            await client.feed(tag, frame)
            tracer.end(span)
        span = tracer.begin("serve.client.close_stream", root, conn=index)
        await client.close_stream(tag)
        tracer.end(span)

    start = perf_counter()
    await asyncio.gather(*(pump(i) for i in range(len(clients))))
    wall = perf_counter() - start
    tracer.end(root)
    events = [compact(client.matches[tag])
              for client, tag in zip(clients, tags)]
    return wall, events


async def _paced_lap(clients, frames, interval, label, tracer, waits):
    """Open loop: frame ``k`` is due at ``t0 + k * interval`` whatever
    the server does; its latency runs from that due time to the PONG of
    the PING that trails it.  Returns the latencies in schedule order
    and adds the generator's own waits and lateness to ``waits``."""
    count = len(clients)
    tags = [f"{label}-c{index}" for index in range(count)]
    for client, tag in zip(clients, tags):
        await client.open(tag)
    loop = asyncio.get_running_loop()
    latencies: dict[int, float] = {}
    pongs = []
    t0 = perf_counter() + 0.05

    async def pong(k, due, sent, span):
        await clients[k % count].ping()
        now = perf_counter()
        latencies[k] = now - due
        waits["pong"] += now - sent
        tracer.end(span)

    async def sender(index):
        for number, frame in enumerate(frames[index]):
            k = number * count + index
            due = t0 + k * interval
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late = perf_counter() - due
            if late > LATE_SEND_SECONDS:
                waits["late"] += 1
            waits["max_late"] = max(waits["max_late"], late)
            # one id per frame, from the generator's schedule to the PONG
            span = tracer.begin("frame", None, frame=k, due=due)
            write = tracer.begin("serve.client.feed", span, frame=k)
            began = perf_counter()
            await clients[index].feed(tags[index], frame)
            sent = perf_counter()
            tracer.end(write)
            waits["write"] += sent - began
            pongs.append(loop.create_task(pong(k, due, sent, span)))

    await asyncio.gather(*(sender(i) for i in range(count)))
    await asyncio.gather(*pongs)
    for client, tag in zip(clients, tags):
        await client.close_stream(tag)
    events = [compact(client.matches[tag])
              for client, tag in zip(clients, tags)]
    return [latencies[k] for k in sorted(latencies)], events


def offline_events(matcher, frames):
    """The offline ``MultiStreamScanner``'s events for the same frames,
    one :func:`compact` pair per connection, in emission order; also
    returns the wall it took."""
    mux = MultiStreamScanner(matcher)
    events = []
    t0 = perf_counter()
    for index, conn_frames in enumerate(frames):
        tag = f"c{index}"
        got = []
        for frame in conn_frames:
            got.extend(mux.feed(tag, frame))
        got.extend(mux.finish(tag))
        events.append(compact(got))
    return events, perf_counter() - t0


def events_digest(events):
    return digest(t for index, conn in enumerate(events)
                  for t in triples([conn], f"c{index}"))


def run_serve(inputs, options, tracer, checks):
    run_dir = options["run_dir"]
    streams = inputs.streams
    count = len(streams)
    prime = inputs.prime
    extra = inputs.extra
    closed_frames = [chunked(s, inputs.chunk_bytes) for s in streams]
    interval = extra["paced_frame_bytes"] / extra["paced_bytes_per_second"]
    # a lap sends every frame of every stream once on the schedule;
    # ``--seconds`` asks for laps enough to fill it
    paced_frames = [chunked(s, extra["paced_frame_bytes"]) for s in streams]
    lap_seconds = interval * sum(len(f) for f in paced_frames)
    laps = max(extra["min_laps"], math.ceil(options["seconds"] / lap_seconds))
    loop = asyncio.new_event_loop()
    spans = {"start": [], "stop": []}
    # everything started, so the finally below can reap it on any path
    fleets, connected = [], []

    def start(cache_dir):
        t0 = perf_counter()
        fleet = WorkerFleet(inputs.patterns, workers=1, cache_dir=cache_dir,
                            **inputs.compile_options)
        fleets.append(fleet)
        fleet.start()
        spans["start"].append(perf_counter() - t0)
        clients = loop.run_until_complete(
            _connect_and_prime(fleet.address, count, prime))
        connected.extend(clients)
        return fleet, clients

    def stop(handle):
        fleet, clients = handle
        loop.run_until_complete(_quit_all(clients))
        del connected[:]
        t0 = perf_counter()
        fleet.stop()
        spans["stop"].append(perf_counter() - t0)

    try:
        cold, warm, (fleet, clients), cache_dir = measure_setups(
            inputs, run_dir, checks, start, stop)
        checks.add("fleet-cache-hits", all(fleet.cache_hits))
        cache_hits = sum(fleet.cache_hits)

        quiet = Tracer(enabled=False)
        stats_before = fleet.stats()
        server_cpu_before = children_cpu_s()
        client_cpu_before = time.process_time()
        # the first two passes against a freshly forked worker measure
        # ~25% faster than every later one (3.0, 3.0, then 2.2-2.5 MB/s on
        # the seed commit): one is discarded and the median over five
        # drops the other.  The timed count is fixed so the median cannot
        # follow the clock; ``--seconds`` sizes the paced phase instead
        loop.run_until_complete(_closed_pass(
            clients, closed_frames, "warmup", quiet))
        walls, all_events = [], []
        passes = TRACED_RUN_PASSES if options["trace"] else inputs.min_passes
        while len(walls) < passes:
            gc.collect()  # the generator's own pauses, aligned as in feed_pass
            wall, events = loop.run_until_complete(_closed_pass(
                clients, closed_frames, f"p{len(walls)}", quiet))
            walls.append(wall)
            all_events.append(events)
        traced_wall = None
        if options["trace"]:
            traced_wall, events = loop.run_until_complete(_closed_pass(
                clients, closed_frames, "traced", tracer))
            checks.add("traced-pass-events", events == all_events[0])
        # every lap sends the same frames at the same due times, so a
        # frame's latency is its median across the laps, as for chunks
        # in-process; the spans are the last lap's
        lap_latencies, lap_events = [], []
        waits = {"write": 0.0, "pong": 0.0, "late": 0, "max_late": 0.0}
        for lap in range(laps):
            gc.collect()  # the generator's own pauses, aligned as in feed_pass
            latencies, events = loop.run_until_complete(_paced_lap(
                clients, paced_frames, interval, f"lap{lap}",
                tracer if lap == laps - 1 else quiet, waits))
            lap_latencies.append(latencies)
            lap_events.append(events)
        errors = sum(len(client.errors) for client in clients)
        client_cpu = time.process_time() - client_cpu_before
        server_cpu = children_cpu_s() - server_cpu_before
        stats_after = fleet.stats()
        peak_rss = children_hwm_mb()
        checks.add("no-err-lines", errors == 0, f"{errors} ERR line(s)")
    finally:
        try:
            loop.run_until_complete(_quit_all(connected))
        finally:
            for started in fleets:
                started.stop(drain=False)  # idempotent
            loop.close()

    # untimed: the offline scanner, event for event, then the oracles
    matcher = RulesetMatcher(inputs.patterns, cache_dir=cache_dir,
                             **inputs.compile_options)
    want_closed, offline_wall = offline_events(matcher, closed_frames)
    want_paced, _ = offline_events(matcher, paced_frames)
    checks.add("closed-events-equal-offline", all_events[0] == want_closed)
    checks.add("paced-events-equal-offline",
               all(events == want_paced for events in lap_events))
    stream_mbps = verify_against_oracles(
        checks, matcher, streams[0], inputs, [all_events[0][0]])
    digests = [events_digest(events) for events in all_events]
    closed_ops = sum(len(f) for f in closed_frames) + 2 * count
    paced_ops = sum(len(f) for f in paced_frames) + 2 * count
    failed = settle_passes(checks, digests, closed_ops, options["pinned"])
    attempted = closed_ops * len(walls) + paced_ops * laps
    if not checks.ok:
        failed = attempted

    closed_bytes = sum(len(frame) for f in closed_frames for frame in f)
    served = statistics.median(walls)
    latencies_ms = [seconds * 1e3 for seconds in position_medians(lap_latencies)]
    result = run_record(
        cold, warm,
        {"scan_mbps": [closed_bytes / wall / 1e6 for wall in walls],
         "chunk_latencies": len(latencies_ms) * laps,
         "late_sends": waits["late"],
         "max_lateness_ms": waits["max_late"] * 1e3},
        {"scan_mbps": closed_bytes / served / 1e6,
         "chunk_latency_ms_p50": percentile(latencies_ms, 0.5),
         "chunk_latency_ms_p95": percentile(latencies_ms, 0.95, repeats=laps)},
        peak_rss, attempted, failed, digests)
    if options["trace"]:
        layers, _ = scan_layers(matcher, closed_frames[0], tracer)
        cache_path = matcher.compile_info.cache_path
        del matcher
        # (the layer sum is not held against this set-up: it is mostly spawn)
        layers.update(compile_layers(
            inputs, cache_path, prime, run_dir, tracer)[0])
        flat = [(rule, end) for _, rule, end in triples(all_events[0])]
        feeds = stats_after.feeds - stats_before.feeds
        layers.update(protocol_layers("p0-c0", flat, feeds, served))
        layers.update({
            "engine.scanner.mbps": stream_mbps,
            "chunk_latency_ms_max": max(map(max, lap_latencies)) * 1e3,
            "serve.server.busy_s":
                stats_after.busy_seconds - stats_before.busy_seconds,
            "serve.server.feeds": feeds,
            "serve.server.bytes_scanned":
                stats_after.bytes_scanned - stats_before.bytes_scanned,
            "serve.server.matches_emitted":
                stats_after.matches_emitted - stats_before.matches_emitted,
            "serve.server.errors": stats_after.errors - stats_before.errors,
            "serve.server.cpu_s": server_cpu,
            "serve.overhead_ratio": served / offline_wall - 1,
            "serve.client.cpu_s": client_cpu,
            "serve.client.write_wait_s": waits["write"],
            "serve.client.pong_wait_s": waits["pong"],
            "serve.client.late_sends": waits["late"],
            "serve.client.max_lateness_ms": waits["max_late"] * 1e3,
            "serve.fleet.start_s": statistics.median(spans["start"]),
            "serve.fleet.stop_s": statistics.median(spans["stop"]),
            "serve.fleet.cache_hits": cache_hits,
            "trace.overhead_ratio": traced_wall / served,
        })
        result["per_layer"] = layers
    return result


# -- scenario: LocalShardCluster + RemoteShardedMatcher ----------------------
def run_cluster(inputs, options, tracer, checks):
    run_dir = options["run_dir"]
    data = inputs.streams[0]
    frames = chunked(data, inputs.chunk_bytes)
    prime = inputs.prime
    shards = inputs.extra["shards"]
    start_s = []
    # everything started, so the finally below can reap it on any path
    clusters, remotes = [], []

    def start(cache_dir):
        t0 = perf_counter()
        cluster = LocalShardCluster(
            inputs.patterns, shards=shards, cache_dir=cache_dir,
            processes=True, **inputs.compile_options)
        clusters.append(cluster)
        addresses = cluster.start()
        remote = RemoteShardedMatcher(addresses)
        remotes.append(remote)
        start_s.append(perf_counter() - t0)
        remote.session().feed(prime)
        return cluster, remote

    def stop(handle):
        cluster, remote = handle
        remote.close()
        cluster.stop()

    try:
        cold, warm, (cluster, remote), cache_dir = measure_setups(
            inputs, run_dir, checks, start, stop)
        checks.add("shards-are-processes", cluster.mode == "processes",
                   f"mode {cluster.mode}")
        passes, digests, first = timed_passes(
            remote.session, frames, inputs, options, "serve.cluster")
        end_to_end, samples, wall, worst_ms = pass_metrics(
            passes, len(data), options)
        layers = {}
        if options["trace"]:
            busy_before = [s.busy_seconds for s in remote.shard_stats()]
            durations, outputs, _ = feed_pass(
                remote.session, frames, tracer, "serve.cluster")
            busy = [after.busy_seconds - before for after, before
                    in zip(remote.shard_stats(), busy_before)]
            checks.add("traced-pass-events", first == outputs)
            feed_total = (tracer.total("serve.cluster.feed")
                          + tracer.total("serve.cluster.finish"))
            layers.update({
                "serve.cluster.feed_total_s": feed_total,
                "serve.cluster.shard_busy_max_s": max(busy),
                "serve.cluster.shard_busy_min_s": min(busy),
                "serve.cluster.barrier_self_s": feed_total - max(busy),
                "trace.overhead_ratio": sum(durations) / wall,
            })
        peak_rss = children_hwm_mb()
    finally:
        for remote_ in remotes:
            remote_.close()  # idempotent
        for cluster_ in clusters:
            if cluster_.mode is not None:
                cluster_.stop(drain=False)  # idempotent

    # untimed: the offline scanner frame for frame, then the oracles
    matcher = RulesetMatcher(inputs.patterns, cache_dir=os.path.join(
        run_dir, "cache-offline"), **inputs.compile_options)
    mux = MultiStreamScanner(matcher)
    want = [compact(mux.feed("s", frame)) for frame in frames]
    want.append(compact(mux.finish("s")))
    checks.add("events-equal-offline", first == want)
    stream_mbps = verify_against_oracles(
        checks, matcher, data, inputs, first[:-1])
    ops_per_pass = len(frames) + 2
    failed = settle_passes(checks, digests, ops_per_pass, options["pinned"])

    result = run_record(cold, warm, samples, end_to_end, peak_rss,
                        ops_per_pass * len(digests), failed, digests)
    if options["trace"]:
        scan, _ = scan_layers(matcher, frames, tracer)
        layers.update(scan)
        cache_path = matcher.compile_info.cache_path
        del matcher, mux
        # (the layer sum is not held against this set-up: it is mostly spawn)
        layers.update(compile_layers(
            inputs, cache_path, prime, run_dir, tracer)[0])
        layers["engine.scanner.mbps"] = stream_mbps
        layers["chunk_latency_ms_max"] = worst_ms
        sharded = ShardedMatcher(inputs.patterns, shards=shards,
                                 **inputs.compile_options)
        with tracer.span("engine.parallel.sharded_session"):
            session = sharded.session()
            for frame in frames:
                session.feed(frame)
            session.finish()
        layers["engine.parallel.sharded_session_s"] = tracer.total(
            "engine.parallel.sharded_session")
        layers["serve.cluster.start_s"] = statistics.median(start_s)
        result["per_layer"] = layers
    return result


SCENARIOS = {"session": run_session, "serve": run_serve, "cluster": run_cluster}


def main(run_dir: str) -> int:
    with open(os.path.join(run_dir, "inputs.pkl"), "rb") as handle:
        inputs, options = pickle.load(handle)  # written by run.py just now
    options["run_dir"] = run_dir
    tracer = Tracer(enabled=bool(options["trace"]))
    checks = Checks()
    result = SCENARIOS[inputs.kind](inputs, options, tracer, checks)
    result["checks"] = checks.items
    result["correct"] = checks.ok and result["failed"] == 0
    if options["trace"]:
        with open(os.path.join(run_dir, "trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": inputs.workload, "spans": tracer.spans},
                      handle)
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
