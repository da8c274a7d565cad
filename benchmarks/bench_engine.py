"""Benchmark: table-driven streaming engine vs the reference simulator.

The engine exists for throughput (the paper's hardware processes one
symbol per clock over Snort-scale rulesets); this benchmark measures
both engines in bytes/sec on a synthetic Snort-style workload with
planted matches, checks byte-identical report sets, and asserts the
acceptance floor: the table-driven ``StreamScanner`` must be at least
5x faster than ``NetworkSimulator.run`` -- both with the optimisation
passes off (-O0, stats-exact) and on (-O1, report-set equivalent).

It also measures what the compile-side work of this codebase buys:

* alphabet-class compression of the match tables (k class entries +
  a 256-byte map vs 256 dense entries);
* cross-rule prefix sharing / dead-node elimination (merged STEs,
  CAM-area savings via the cost model);
* cold-vs-warm compile time through the persistent ruleset cache.

Everything is archived machine-readably in
``results/BENCH_engine.json`` so the perf trajectory is tracked
across PRs.
"""

import tempfile
import time

import pytest

from repro.compiler.pipeline import compile_ruleset
from repro.engine.backends import available_backends, get_backend, resolve_backend
from repro.engine.scanner import StreamScanner
from repro.engine.tables import compile_tables, table_stats
from repro.hardware.cost import savings_of_mappings
from repro.compiler.mapping import map_network
from repro.hardware.simulator import NetworkSimulator
from repro.matching import RulesetMatcher
from repro.workloads.inputs import plant_matches, stream_for_style
from repro.workloads.synth import module_heavy, snort_like

from conftest import save_json, save_report, update_json

SPEEDUP_FLOOR = 5.0
#: acceptance floor for the NumPy block backend over the scalar stream
#: interpreter on the STE-only (fully unfolded) suite
BLOCK_SPEEDUP_FLOOR = 2.0
STREAM_BYTES = 120_000
CHUNK = 1 << 14
#: the reference simulator is orders of magnitude slower on the
#: unfolded network -- time it on a prefix and verify reports there
REFERENCE_SLICE = 24_576


@pytest.fixture(scope="module")
def workload():
    suite = snort_like(total=40, seed=7)
    rules = suite.patterns()
    ruleset = compile_ruleset(rules)
    optimized = compile_ruleset(rules, opt_level=1)
    background = stream_for_style(suite.input_style, STREAM_BYTES, seed=5)
    data = plant_matches(background, [r.pattern for r in suite.rules], seed=6)
    return rules, ruleset, optimized, data


def _time(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_chunked_scan(tables, data):
    scanner = StreamScanner(tables)

    def run():
        scanner.reset()
        for offset in range(0, len(data), CHUNK):
            scanner.feed(data[offset : offset + CHUNK])
        scanner.finish()

    return scanner, _time(run)


def test_table_engine_speedup_and_equivalence(workload):
    rules, ruleset, optimized, data = workload
    tables = compile_tables(ruleset.network)
    opt_tables = compile_tables(optimized.network)

    sim = NetworkSimulator(ruleset.network)

    def run_reference():
        sim.reset()
        sim.run(data)

    t_reference = _time(run_reference)
    scanner, t_table = _timed_chunked_scan(tables, data)
    opt_scanner, t_opt = _timed_chunked_scan(opt_tables, data)

    # -O0: byte-identical reports and activity stats from the timed runs
    assert scanner.reports == sim.distinct_reports()
    assert scanner.stats.equivalent(sim.stats)
    assert scanner.stats.reports > 0  # the planted matches fired
    # -O1: exact report-set equivalence against the reference simulator
    assert opt_scanner.reports == sim.distinct_reports()

    ref_bps = len(data) / t_reference
    table_bps = len(data) / t_table
    opt_bps = len(data) / t_opt
    speedup = table_bps / ref_bps
    opt_speedup = opt_bps / ref_bps

    # compile-side wins: table compression + pass savings + warm starts
    stats = table_stats(tables)
    opt_stats = table_stats(opt_tables)
    savings = savings_of_mappings(
        map_network(ruleset.network), map_network(optimized.network)
    )
    opt_report = optimized.optimization
    with tempfile.TemporaryDirectory() as cache_dir:
        t0 = time.perf_counter()
        cold = RulesetMatcher(rules, opt_level=1, cache_dir=cache_dir)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = RulesetMatcher(rules, opt_level=1, cache_dir=cache_dir)
        t_warm = time.perf_counter() - t0
        assert not cold.compile_info.cache_hit
        assert warm.compile_info.cache_hit
        probe = data[:4096]
        assert warm.scan(probe) == cold.scan(probe)

    report = (
        "Engine throughput (synthetic Snort-style workload, "
        f"{len(data)} bytes, {ruleset.network.node_count()} MNRL nodes)\n"
        f"  reference NetworkSimulator.run : {ref_bps / 1e3:9.1f} KB/s\n"
        f"  table-driven StreamScanner -O0 : {table_bps / 1e3:9.1f} KB/s "
        f"({CHUNK}-byte chunks)\n"
        f"  table-driven StreamScanner -O1 : {opt_bps / 1e3:9.1f} KB/s\n"
        f"  speedup -O0 / -O1              : {speedup:9.1f}x /{opt_speedup:6.1f}x "
        f"(floor {SPEEDUP_FLOOR}x)\n"
        f"  distinct reports (identical)   : {len(scanner.reports)}\n"
        f"  match table                    : {stats.n_classes} classes of 256 "
        f"({stats.match_mask_bytes + stats.byte_class_bytes} B vs "
        f"{stats.dense_match_bytes} B dense, "
        f"{stats.match_table_reduction:.0%} smaller)\n"
        f"  -O1 passes                     : {opt_report.merged_stes} STEs merged, "
        f"{opt_report.removed_nodes} dead removed "
        f"({savings.stes_before} -> {savings.stes_after} STEs, "
        f"area {savings.area_reduction:.0%} down)\n"
        f"  ruleset cache                  : cold {t_cold * 1e3:.1f} ms -> "
        f"warm {t_warm * 1e3:.1f} ms ({t_cold / max(t_warm, 1e-9):.0f}x)"
    )
    save_report("engine", report)
    save_json(
        "engine",
        {
            "stream_bytes": len(data),
            "chunk_bytes": CHUNK,
            "mnrl_nodes": ruleset.network.node_count(),
            "reference_bps": ref_bps,
            "table_bps": table_bps,
            "table_bps_opt1": opt_bps,
            "speedup": speedup,
            "speedup_opt1": opt_speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "distinct_reports": len(scanner.reports),
            "tables": {
                "O0": {
                    "n_stes": stats.n_stes,
                    "n_classes": stats.n_classes,
                    "match_mask_bytes": stats.match_mask_bytes,
                    "byte_class_bytes": stats.byte_class_bytes,
                    "dense_match_bytes": stats.dense_match_bytes,
                    "match_table_reduction": stats.match_table_reduction,
                },
                "O1": {
                    "n_stes": opt_stats.n_stes,
                    "n_classes": opt_stats.n_classes,
                    "match_mask_bytes": opt_stats.match_mask_bytes,
                    "byte_class_bytes": opt_stats.byte_class_bytes,
                    "dense_match_bytes": opt_stats.dense_match_bytes,
                    "match_table_reduction": opt_stats.match_table_reduction,
                },
            },
            "optimization": {
                "merged_stes": opt_report.merged_stes,
                "removed_nodes": opt_report.removed_nodes,
                "stes_before": savings.stes_before,
                "stes_after": savings.stes_after,
                "cam_arrays_before": savings.cam_arrays_before,
                "cam_arrays_after": savings.cam_arrays_after,
                "area_reduction": savings.area_reduction,
            },
            "cache": {
                "cold_compile_s": t_cold,
                "warm_compile_s": t_warm,
                "warm_speedup": t_cold / max(t_warm, 1e-9),
            },
        },
    )
    assert speedup >= SPEEDUP_FLOOR, report
    assert opt_speedup >= SPEEDUP_FLOOR, report


def test_warm_start_skips_compilation(workload):
    """The cache artifact must load measurably faster than compiling
    (parsing + analysis + emission + lowering are all skipped)."""
    rules, _, _, _ = workload
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = RulesetMatcher(rules, opt_level=1, cache_dir=cache_dir)
        warm = RulesetMatcher(rules, opt_level=1, cache_dir=cache_dir)
        assert warm.compile_info.cache_hit
        assert warm.compile_info.seconds < cold.compile_info.seconds


@pytest.fixture(scope="module")
def ste_only_workload():
    """The same Snort-style suite with every counting construct
    unfolded into STE chains: the module-free common case the block
    backend is built for."""
    suite = snort_like(total=40, seed=7)
    rules = suite.patterns()
    ruleset = compile_ruleset(rules, unfold_threshold=float("inf"))
    tables = compile_tables(ruleset.network)
    background = stream_for_style(suite.input_style, STREAM_BYTES, seed=5)
    data = plant_matches(background, [r.pattern for r in suite.rules], seed=6)
    return rules, tables, data


def test_backend_throughput_matrix(ste_only_workload):
    """Per-backend bytes/sec on the STE-only suite, archived to
    BENCH_engine.json; asserts identical reports across all registered
    backends and the block backend's >= 2x floor over stream."""
    _, tables, data = ste_only_workload
    assert tables.n_modules == 0  # the STE-only suite really is STE-only

    matrix: dict = {}
    report_sets: dict = {}
    for info in available_backends():
        if not info.available:
            matrix[info.name] = {
                "available": False,
                "reason": info.unavailable_reason,
            }
            continue
        sample = data[:REFERENCE_SLICE] if info.name == "reference" else data
        scanner = get_backend(info.name).make_scanner(tables)

        def run(scanner=scanner, sample=sample):
            scanner.reset()
            for offset in range(0, len(sample), CHUNK):
                scanner.feed(sample[offset : offset + CHUNK])
            scanner.finish()

        elapsed = _time(run)
        matrix[info.name] = {
            "available": True,
            "bytes": len(sample),
            "bps": len(sample) / elapsed,
            "stats_exact": info.stats_exact,
        }
        report_sets[info.name] = set(scanner.reports)

    # identical reports everywhere: full-stream across the fast
    # backends, and on the timed prefix for the reference oracle
    # (streaming reports at position p depend only on the first p bytes)
    want = report_sets["stream"]
    want_prefix = {pair for pair in want if pair[0] <= REFERENCE_SLICE}
    for name, reports in report_sets.items():
        if name == "reference":
            assert reports == want_prefix, name
        else:
            assert reports == want, name

    auto_choice = resolve_backend("auto", tables).name
    block = matrix.get("block", {})
    block_speedup = (
        block["bps"] / matrix["stream"]["bps"] if block.get("available") else None
    )
    update_json(
        "engine",
        {
            "backends_ste_only": {
                "stream_bytes": len(data),
                "chunk_bytes": CHUNK,
                "n_stes": tables.n_stes,
                "auto_choice": auto_choice,
                "block_speedup_floor": BLOCK_SPEEDUP_FLOOR,
                "block_speedup_vs_stream": block_speedup,
                "matrix": matrix,
            }
        },
    )
    lines = [
        f"Backend throughput (STE-only Snort-style suite, {tables.n_stes} STEs, "
        f"{len(data)} bytes, auto -> {auto_choice})"
    ]
    for name, row in matrix.items():
        if row.get("available"):
            lines.append(f"  {name:<10}: {row['bps'] / 1e3:9.1f} KB/s ({row['bytes']} B)")
        else:
            lines.append(f"  {name:<10}: unavailable ({row['reason']})")
    if block_speedup is not None:
        lines.append(
            f"  block / stream: {block_speedup:.2f}x (floor {BLOCK_SPEEDUP_FLOOR}x)"
        )
    save_report("engine_backends", "\n".join(lines))

    if block.get("available"):
        assert auto_choice == "block"
        assert block_speedup >= BLOCK_SPEEDUP_FLOOR, "\n".join(lines)
    else:
        # graceful degradation: auto serves the suite on the interpreter
        assert auto_choice == "stream"


@pytest.fixture(scope="module")
def module_heavy_workload():
    """Every rule bears a counter/bit-vector module (threshold 0 keeps
    them as modules): the workload in-sweep module execution exists
    for."""
    suite = module_heavy(total=24, seed=0x40D5)
    rules = suite.patterns()
    ruleset = compile_ruleset(rules)
    tables = compile_tables(ruleset.network)
    background = stream_for_style(suite.input_style, STREAM_BYTES, seed=5)
    data = plant_matches(background, [r.pattern for r in suite.rules], seed=6)
    return rules, tables, data


def test_backend_throughput_matrix_modules(module_heavy_workload):
    """Per-backend bytes/sec on the module-heavy suite, archived under
    ``backends_modules`` in BENCH_engine.json.  Acceptance: the block
    backend must beat stream by >= 2x with module activity running
    inside the vector sweeps, not around them."""
    _, tables, data = module_heavy_workload
    assert tables.n_modules > 0  # the module-heavy suite really has modules

    matrix: dict = {}
    report_sets: dict = {}
    sweep_stats = None
    for info in available_backends():
        if not info.available:
            matrix[info.name] = {
                "available": False,
                "reason": info.unavailable_reason,
            }
            continue
        sample = data[:REFERENCE_SLICE] if info.name == "reference" else data
        scanner = get_backend(info.name).make_scanner(tables)

        def run(scanner=scanner, sample=sample):
            scanner.reset()
            for offset in range(0, len(sample), CHUNK):
                scanner.feed(sample[offset : offset + CHUNK])
            scanner.finish()

        elapsed = _time(run)
        matrix[info.name] = {
            "available": True,
            "bytes": len(sample),
            "bps": len(sample) / elapsed,
            "stats_exact": info.stats_exact,
        }
        report_sets[info.name] = set(scanner.reports)
        if info.name == "block":
            sweep_stats = scanner.sweep_stats

    want = report_sets["stream"]
    want_prefix = {pair for pair in want if pair[0] <= REFERENCE_SLICE}
    for name, reports in report_sets.items():
        if name == "reference":
            assert reports == want_prefix, name
        else:
            assert reports == want, name

    auto_choice = resolve_backend("auto", tables).name
    block = matrix.get("block", {})
    block_speedup = (
        block["bps"] / matrix["stream"]["bps"] if block.get("available") else None
    )
    update_json(
        "engine",
        {
            "backends_modules": {
                "stream_bytes": len(data),
                "chunk_bytes": CHUNK,
                "n_stes": tables.n_stes,
                "n_modules": tables.n_modules,
                "auto_choice": auto_choice,
                "block_speedup_floor": BLOCK_SPEEDUP_FLOOR,
                "block_speedup_vs_stream": block_speedup,
                "block_sweep": None
                if sweep_stats is None
                else {
                    "committed_blocks": sweep_stats.committed_blocks,
                    "modules_vectorized": sweep_stats.modules_vectorized,
                },
                "matrix": matrix,
            }
        },
    )
    lines = [
        f"Backend throughput (module-heavy suite, {tables.n_stes} STEs + "
        f"{tables.n_modules} modules, {len(data)} bytes, auto -> {auto_choice})"
    ]
    for name, row in matrix.items():
        if row.get("available"):
            lines.append(f"  {name:<10}: {row['bps'] / 1e3:9.1f} KB/s ({row['bytes']} B)")
        else:
            lines.append(f"  {name:<10}: unavailable ({row['reason']})")
    if block_speedup is not None:
        lines.append(
            f"  block / stream: {block_speedup:.2f}x (floor {BLOCK_SPEEDUP_FLOOR}x), "
            f"{sweep_stats.committed_blocks} committed sweeps"
        )
    save_report("engine_backends_modules", "\n".join(lines))

    if block.get("available"):
        assert auto_choice == "block"
        # the acceptance claim: fast AND every block run by the sweep
        assert sweep_stats.modules_vectorized, "\n".join(lines)
        assert sweep_stats.committed_blocks > 0, "\n".join(lines)
        assert block_speedup >= BLOCK_SPEEDUP_FLOOR, "\n".join(lines)
    else:
        # graceful degradation: module rules fall back to the interpreter
        assert auto_choice == "stream"


#: acceptance ceiling for the session layer's cost over driving a raw
#: backend scanner directly (same backend, same chunking)
SESSION_OVERHEAD_CEILING = 0.10


def test_session_overhead(ste_only_workload):
    """The session layer (Match construction, sorting, ``$`` gating
    bookkeeping) must cost < 10% of raw scanner throughput on the
    STE-only suite; measured per run and archived to BENCH_engine.json.
    """
    rules, _, data = ste_only_workload
    matcher = RulesetMatcher(rules, unfold_threshold=float("inf"))
    backend = resolve_backend("auto", matcher.tables)
    chunks = [data[offset : offset + CHUNK] for offset in range(0, len(data), CHUNK)]

    def raw():
        scanner = backend.make_scanner(matcher.tables)
        for chunk in chunks:
            scanner.feed(chunk)
        scanner.finish()
        return scanner

    def via_session():
        with matcher.session() as session:
            for chunk in chunks:
                session.feed(chunk)
        return session

    t_raw = _time(raw, rounds=5)
    t_session = _time(via_session, rounds=5)
    raw_bps = len(data) / t_raw
    session_bps = len(data) / t_session
    overhead = t_session / t_raw - 1.0

    # same reports either way (the session only re-dresses them)
    scanner, session = raw(), via_session()
    assert session.result().matches
    assert len(session.scanners) == 1
    assert session.scanners[0].reports == scanner.reports

    update_json(
        "engine",
        {
            "session_overhead": {
                "backend": backend.name,
                "chunk_bytes": CHUNK,
                "stream_bytes": len(data),
                "raw_bps": raw_bps,
                "session_bps": session_bps,
                "overhead": overhead,
                "ceiling": SESSION_OVERHEAD_CEILING,
            }
        },
    )
    report = (
        f"Session-layer overhead ({backend.name} backend, STE-only suite)\n"
        f"  raw scanner    : {raw_bps / 1e3:9.1f} KB/s\n"
        f"  via session    : {session_bps / 1e3:9.1f} KB/s\n"
        f"  overhead       : {overhead:9.1%} (ceiling "
        f"{SESSION_OVERHEAD_CEILING:.0%})"
    )
    save_report("engine_session", report)
    assert overhead < SESSION_OVERHEAD_CEILING, report


#: acceptance ceiling for the serving layer's cost (framing, the event
#: loop, executor hand-offs, match emission) over the offline
#: multi-stream scanner on the same traffic
SERVE_OVERHEAD_CEILING = 0.30
SERVE_CONNECTIONS = 8
SERVE_CHUNK = 1 << 16
SERVE_ROUNDS = 3

#: the client fleet runs in its OWN process (like real clients): the
#: server process pays only its own serving costs, and the driver
#: reports wall time from first feed to last CLOSED plus a CRC over
#: every (tag, rule, end) event for the offline-equality check.
#: Per round it opens fresh connections/streams (tags are namespaced
#: by round), so rounds are independent and best-of-N is honest.
_SERVE_DRIVER = r"""
import asyncio, sys, time, zlib

src, host, port, path, chunk, conns, rounds = sys.argv[1:8]
port, chunk, conns, rounds = int(port), int(chunk), int(conns), int(rounds)
sys.path.insert(0, src)
from repro.serve import MatchClient

with open(path, "rb") as handle:
    data = handle.read()
chunks = [data[o : o + chunk] for o in range(0, len(data), chunk)]

async def one_round(index):
    clients = []
    for i in range(conns):
        client = await MatchClient.connect(host, port)
        await client.open(f"r{index}-s{i}")
        clients.append(client)

    async def pump(i, client):
        tag = f"r{index}-s{i}"
        for piece in chunks:
            await client.feed(tag, piece)
        await client.close_stream(tag)

    start = time.perf_counter()
    await asyncio.gather(*(pump(i, c) for i, c in enumerate(clients)))
    elapsed = time.perf_counter() - start
    lines = sorted(
        f"s{i} {m.rule} {m.end}"
        for i, c in enumerate(clients)
        for m in c.matches[f"r{index}-s{i}"]
    )
    crc = zlib.crc32("\n".join(lines).encode("latin-1"))
    count = len(lines)
    for client in clients:
        await client.quit()
    return elapsed, count, crc

async def main():
    print("READY", flush=True)
    sys.stdin.readline()  # GO
    for index in range(rounds):
        elapsed, count, crc = await one_round(index)
        print(f"ROUND {elapsed:.6f} {count} {crc}", flush=True)

asyncio.run(main())
"""


def test_serve_throughput(ste_only_workload, tmp_path):
    """N concurrent connections through a real MatchServer (clients in
    a separate process, as deployed) vs the same total traffic through
    the offline MultiStreamScanner in-process; asserts per-stream match
    equality (CRC over every event) and the serving-overhead ceiling,
    and appends a ``serve`` section to BENCH_engine.json."""
    import asyncio
    import os
    import subprocess
    import sys
    import threading
    import zlib

    import repro
    from repro.serve import MatchServer
    from repro.session import MultiStreamScanner

    rules, _, data = ste_only_workload
    matcher = RulesetMatcher(rules, unfold_threshold=float("inf"))
    chunks = [
        data[offset : offset + SERVE_CHUNK]
        for offset in range(0, len(data), SERVE_CHUNK)
    ]
    tags = [f"s{i}" for i in range(SERVE_CONNECTIONS)]

    # -- offline baseline (and the expected event CRC) ---------------------
    def offline():
        mux = MultiStreamScanner(matcher)
        events = []
        for tag in tags:
            session = mux.session(tag)
            for chunk in chunks:
                for match in session.feed(chunk):
                    events.append((tag, match.rule, match.end))
        for tag in tags:
            for match in mux.finish(tag):
                events.append((tag, match.rule, match.end))
        return events

    t_offline = _time(offline, rounds=SERVE_ROUNDS)
    expected = sorted(f"{t} {r} {e}" for t, r, e in offline())
    expected_crc = zlib.crc32("\n".join(expected).encode("latin-1"))

    # -- the server, on its own event loop in this process -----------------
    ready = threading.Event()
    box: dict = {}

    def server_thread():
        async def run():
            server = MatchServer(matcher, port=0)
            await server.start()
            stop = asyncio.Event()
            box["port"] = server.port
            box["stop"] = (asyncio.get_running_loop(), stop)
            ready.set()
            await stop.wait()
            box["stats"] = server.stats()
            await server.stop()

        asyncio.run(run())

    thread = threading.Thread(target=server_thread, daemon=True)
    thread.start()
    assert ready.wait(timeout=30)

    data_path = tmp_path / "serve_stream.bin"
    data_path.write_bytes(data)
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    driver = subprocess.Popen(
        [
            sys.executable, "-c", _SERVE_DRIVER, src_dir, "127.0.0.1",
            str(box["port"]), str(data_path), str(SERVE_CHUNK),
            str(SERVE_CONNECTIONS), str(SERVE_ROUNDS),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert driver.stdout.readline().strip() == "READY"
        driver.stdin.write("GO\n")
        driver.stdin.flush()
        rounds = []
        for _ in range(SERVE_ROUNDS):
            fields = driver.stdout.readline().split()
            assert fields and fields[0] == "ROUND", (fields, driver.stderr.read())
            rounds.append((float(fields[1]), int(fields[2]), int(fields[3])))
        driver.wait(timeout=30)
    finally:
        if driver.poll() is None:
            driver.kill()
        loop, stop = box["stop"]
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=30)

    # every round's served events are identical to the offline scanner's
    for _, count, crc in rounds:
        assert count == len(expected)
        assert crc == expected_crc

    t_serve = min(elapsed for elapsed, _, _ in rounds)
    stats = box["stats"]
    total_bytes = len(data) * SERVE_CONNECTIONS
    offline_bps = total_bytes / t_offline
    serve_bps = total_bytes / t_serve
    overhead = t_serve / t_offline - 1.0

    update_json(
        "engine",
        {
            "serve": {
                "connections": SERVE_CONNECTIONS,
                "chunk_bytes": SERVE_CHUNK,
                "stream_bytes": len(data),
                "total_bytes": total_bytes,
                "offline_bps": offline_bps,
                "serve_bps": serve_bps,
                "overhead": overhead,
                "ceiling": SERVE_OVERHEAD_CEILING,
                "matches_per_round": len(expected),
                "server_busy_seconds": stats.busy_seconds,
            }
        },
    )
    report = (
        f"Serving overhead ({SERVE_CONNECTIONS} concurrent connections from "
        f"a separate client process,\n"
        f"    {SERVE_CHUNK}-byte frames, {total_bytes} total bytes, "
        f"{len(expected)} matches streamed per round)\n"
        f"  offline MultiStreamScanner : {offline_bps / 1e3:9.1f} KB/s\n"
        f"  served over TCP            : {serve_bps / 1e3:9.1f} KB/s\n"
        f"  overhead                   : {overhead:9.1%} (ceiling "
        f"{SERVE_OVERHEAD_CEILING:.0%})"
    )
    save_report("engine_serve", report)
    assert overhead < SERVE_OVERHEAD_CEILING, report


#: fleet size for the scaling benchmark and the linear-scaling floor it
#: must clear (aggregate bps of the fleet vs one worker, same traffic)
FLEET_WORKERS = 4
FLEET_LINEAR_FLOOR = 0.7
FLEET_ROUNDS = 2

#: like _SERVE_DRIVER, but *steered*: SO_REUSEPORT shards by 4-tuple
#: hash, which on a handful of connections can pile everything onto one
#: worker and make any scaling number meaningless.  The driver fills a
#: per-worker connection quota (reading the STATS ``worker`` field,
#: redialing until every worker holds its share) so the measurement
#: exercises all N workers; if steering stalls it falls back to
#: whatever the kernel dealt.
_FLEET_DRIVER = r"""
import asyncio, sys, time

src, host, port, path, chunk, workers, per_worker, rounds = sys.argv[1:9]
port, chunk, workers, per_worker, rounds = (
    int(port), int(chunk), int(workers), int(per_worker), int(rounds))
sys.path.insert(0, src)
from repro.serve import MatchClient

with open(path, "rb") as handle:
    data = handle.read()
chunks = [data[o : o + chunk] for o in range(0, len(data), chunk)]

async def steered_clients():
    total = workers * per_worker
    want = {w: per_worker for w in range(workers)}
    clients, spare = [], []
    dials = 0
    while sum(want.values()) and dials < 64 * workers:
        dials += 1
        client = await MatchClient.connect(host, port, retries=5)
        stats = await client.stats()
        worker = stats.get("worker") or 0
        if want.get(worker, 0):
            want[worker] -= 1
            clients.append(client)
        else:
            spare.append(client)
    while len(clients) < total and spare:
        clients.append(spare.pop())
    for client in spare:
        await client.quit()
    return clients

async def one_round(index):
    clients = await steered_clients()
    for i, client in enumerate(clients):
        await client.open(f"r{index}-s{i}")

    async def pump(i, client):
        tag = f"r{index}-s{i}"
        for piece in chunks:
            await client.feed(tag, piece)
        return await client.close_stream(tag)

    start = time.perf_counter()
    summaries = await asyncio.gather(
        *(pump(i, c) for i, c in enumerate(clients)))
    elapsed = time.perf_counter() - start
    count = sum(s.matches_emitted for s in summaries)
    for client in clients:
        await client.quit()
    return elapsed, count

async def main():
    print("READY", flush=True)
    sys.stdin.readline()  # GO
    for index in range(rounds):
        elapsed, count = await one_round(index)
        print(f"ROUND {elapsed:.6f} {count}", flush=True)

asyncio.run(main())
"""


def test_serve_fleet_scaling(ste_only_workload, tmp_path):
    """ISSUE 7 acceptance: a 4-worker SO_REUSEPORT fleet must reach
    >= 0.7x linear aggregate throughput over one worker on the same
    traffic (4 concurrent full-stream connections, worker-steered).

    Always *measures* and writes the ``serve_fleet`` section of
    BENCH_engine.json; the scaling floor is only *asserted* when the
    machine has enough cores for 4 workers plus the client driver to
    actually run in parallel (the measurement is still recorded, with
    the skip reason, on smaller boxes -- a 1-CPU container cannot
    exhibit process-level speedup)."""
    import os
    import subprocess
    import sys

    import repro
    from repro.serve.fleet import WorkerFleet
    from repro.session import MultiStreamScanner

    rules, _, data = ste_only_workload
    conns = FLEET_WORKERS  # identical total traffic in both runs
    data_path = tmp_path / "fleet_stream.bin"
    data_path.write_bytes(data)
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))

    # expected matches per stream, for the served-correctly check
    matcher = RulesetMatcher(rules, unfold_threshold=float("inf"))
    mux = MultiStreamScanner(matcher)
    per_stream = sum(1 for _ in mux.feed("s", data)) + sum(
        1 for _ in mux.finish("s")
    )

    def measure(workers):
        per_worker = conns // workers
        with WorkerFleet(
            rules,
            workers=workers,
            port=0,
            unfold_threshold=float("inf"),
        ) as fleet:
            driver = subprocess.Popen(
                [
                    sys.executable, "-c", _FLEET_DRIVER, src_dir,
                    fleet.host, str(fleet.port), str(data_path),
                    str(SERVE_CHUNK), str(workers), str(per_worker),
                    str(FLEET_ROUNDS),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                assert driver.stdout.readline().strip() == "READY"
                driver.stdin.write("GO\n")
                driver.stdin.flush()
                rounds = []
                for _ in range(FLEET_ROUNDS):
                    fields = driver.stdout.readline().split()
                    assert fields and fields[0] == "ROUND", (
                        fields, driver.stderr.read(),
                    )
                    rounds.append((float(fields[1]), int(fields[2])))
                driver.wait(timeout=30)
            finally:
                if driver.poll() is None:
                    driver.kill()
            distribution = [
                snap.bytes_scanned for snap in fleet.worker_stats()
            ]
        for _, count in rounds:
            assert count == conns * per_stream
        best = min(elapsed for elapsed, _ in rounds)
        return conns * len(data) / best, distribution

    single_bps, _ = measure(1)
    fleet_bps, distribution = measure(FLEET_WORKERS)
    scaling = fleet_bps / single_bps
    linear_fraction = scaling / FLEET_WORKERS
    cpus = os.cpu_count() or 1
    # 4 scanning workers + the client driver need their own cores for
    # process-level scaling to be observable at all
    asserted = cpus >= FLEET_WORKERS + 1
    section = {
        "workers": FLEET_WORKERS,
        "connections": conns,
        "stream_bytes": len(data),
        "single_worker_bps": single_bps,
        "fleet_bps": fleet_bps,
        "scaling": scaling,
        "linear_fraction": linear_fraction,
        "floor": FLEET_LINEAR_FLOOR,
        "worker_bytes": distribution,
        "cpus": cpus,
        "asserted": asserted,
    }
    if not asserted:
        section["skip_reason"] = (
            f"scaling floor needs >= {FLEET_WORKERS + 1} CPUs, have {cpus}"
        )
    update_json("engine", {"serve_fleet": section})
    report = (
        f"Fleet scaling ({FLEET_WORKERS} workers vs 1, {conns} steered "
        f"connections, {conns * len(data)} total bytes)\n"
        f"  single worker : {single_bps / 1e3:9.1f} KB/s\n"
        f"  {FLEET_WORKERS}-worker fleet: {fleet_bps / 1e3:9.1f} KB/s\n"
        f"  scaling       : {scaling:9.2f}x "
        f"({linear_fraction:.0%} of linear, floor "
        f"{FLEET_LINEAR_FLOOR:.0%}, {cpus} CPU(s))"
    )
    save_report("engine_serve_fleet", report)
    if asserted:
        assert scaling >= FLEET_LINEAR_FLOOR * FLEET_WORKERS, report


CLUSTER_SHARDS = 3
#: a 3-shard scatter-gather scan must stay under this multiple of the
#: 1-shard remote baseline (every shard scans every byte, but each
#: holds 1/3 of the rules -- the scan work roughly conserves; what
#: this bounds is the tripled framing + per-feed PING-barrier cost)
CLUSTER_OVERHEAD_CEILING = 2.0
CLUSTER_ROUNDS = 3


def test_serve_cluster_overhead(ste_only_workload):
    """ISSUE 10 acceptance: scatter-gather fan-out over 3 shard-server
    processes costs < 2x the 1-shard remote baseline on the same
    stream, with merged matches identical to the offline scanner.

    Always measures and writes the ``serve_cluster`` section of
    BENCH_engine.json; like the fleet benchmark, the ceiling is a
    latency bound (barrier + framing), not a parallelism claim, so it
    is asserted regardless of core count."""
    import os

    from repro import LocalShardCluster, RemoteShardedMatcher

    rules, _, data = ste_only_workload
    chunks = [
        data[offset : offset + SERVE_CHUNK]
        for offset in range(0, len(data), SERVE_CHUNK)
    ]
    offline = RulesetMatcher(rules, unfold_threshold=float("inf")).scan_stream(
        chunks
    )

    def measure(shards):
        with LocalShardCluster(
            rules,
            shards=shards,
            unfold_threshold=float("inf"),
            processes=True,
        ) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                result = remote.scan_stream(chunks)
                assert result.matches == offline.matches
                assert result.bytes_scanned == offline.bytes_scanned
                elapsed = _time(
                    lambda: remote.scan_stream(chunks), rounds=CLUSTER_ROUNDS
                )
            mode = cluster.mode
        return elapsed, mode

    t_single, _ = measure(1)
    t_cluster, mode = measure(CLUSTER_SHARDS)
    single_bps = len(data) / t_single
    cluster_bps = len(data) / t_cluster
    ratio = t_cluster / t_single

    update_json(
        "engine",
        {
            "serve_cluster": {
                "shards": CLUSTER_SHARDS,
                "mode": mode,
                "chunk_bytes": SERVE_CHUNK,
                "stream_bytes": len(data),
                "single_shard_bps": single_bps,
                "cluster_bps": cluster_bps,
                "fanout_ratio": ratio,
                "ceiling": CLUSTER_OVERHEAD_CEILING,
                "matches": sum(len(e) for e in offline.matches.values()),
                "cpus": os.cpu_count() or 1,
            }
        },
    )
    report = (
        f"Cluster fan-out overhead ({CLUSTER_SHARDS} shard-server "
        f"processes vs 1, {SERVE_CHUNK}-byte frames,\n"
        f"    {len(data)} stream bytes, lockstep FEED+PING barrier "
        f"per frame, mode {mode})\n"
        f"  1 shard : {single_bps / 1e3:9.1f} KB/s\n"
        f"  {CLUSTER_SHARDS} shards: {cluster_bps / 1e3:9.1f} KB/s\n"
        f"  ratio   : {ratio:9.2f}x (ceiling "
        f"{CLUSTER_OVERHEAD_CEILING:.1f}x)"
    )
    save_report("engine_serve_cluster", report)
    assert ratio < CLUSTER_OVERHEAD_CEILING, report


RULES_CORPUS_SIZE = 2000
#: the cache must buy at least this over a cold ruleset compile
#: (measured ~13x; keep headroom for slow CI runners)
RULES_WARM_FLOOR = 3.0


def test_rules_compile_scale(tmp_path):
    """The Snort-rule frontend at corpus scale: triage a synthetic
    multi-thousand-rule corpus (every rule classified), compile the
    survivors cold then warm through the persistent cache, and scan —
    the `rules_frontend` section of BENCH_engine.json."""
    from repro.rules import load_rules_text
    from repro.workloads.snort_rules import corpus_text

    text = corpus_text(total=RULES_CORPUS_SIZE)
    cache_dir = str(tmp_path / "cache")
    # cold and warm each start from the rule text, as a process would:
    # the triage is part of both (derived cold, loaded warm)
    started = time.perf_counter()
    loaded = load_rules_text(text, file="synthetic.rules")
    cold, folded = loaded.compile(cache_dir=cache_dir, opt_level=1)
    cold_seconds = time.perf_counter() - started
    triage_seconds = cold.compile_info.phases["triage"]
    report = loaded.report
    assert report.total == RULES_CORPUS_SIZE
    assert sum(report.counts.values()) == report.total  # zero unclassified
    assert not cold.compile_info.cache_hit
    assert sum(folded.counts.values()) == folded.total

    started = time.perf_counter()
    warm, _ = load_rules_text(text, file="synthetic.rules").compile(
        cache_dir=cache_dir, opt_level=1
    )
    warm_seconds = time.perf_counter() - started
    assert warm.compile_info.cache_hit
    assert set(warm.compile_info.phases) == {"load"}

    background = stream_for_style("network", STREAM_BYTES, seed=11)
    started = time.perf_counter()
    result = warm.scan(background)
    scan_seconds = time.perf_counter() - started
    throughput = len(background) / scan_seconds

    speedup = cold_seconds / warm_seconds
    update_json(
        "engine",
        {
            "rules_frontend": {
                "corpus_rules": report.total,
                "triage_counts": dict(report.counts),
                "triage_seconds": round(triage_seconds, 3),
                "compile_cold_seconds": round(cold_seconds, 3),
                "compile_warm_seconds": round(warm_seconds, 3),
                "warm_speedup": round(speedup, 1),
                "warm_speedup_floor": RULES_WARM_FLOOR,
                "scan_bytes": len(background),
                "scan_bytes_per_second": round(throughput),
            }
        },
    )
    counts = report.counts
    save_report(
        "engine_rules_frontend",
        f"rules frontend: {report.total} rules "
        f"({counts['compiled']} compiled / {counts['rewritten']} rewritten / "
        f"{counts['rejected']} rejected) triaged in {triage_seconds:.2f}s; "
        f"compile cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s "
        f"({speedup:.1f}x, floor {RULES_WARM_FLOOR:.0f}x); "
        f"scan {throughput / 1e6:.2f} MB/s over {len(background)} bytes "
        f"({result.total_matches()} matches)",
    )
    assert speedup >= RULES_WARM_FLOOR


def test_table_engine_throughput(benchmark, workload):
    """pytest-benchmark timing of the fast path alone (optimizer on)."""
    _, _, optimized, data = workload
    scanner = StreamScanner(compile_tables(optimized.network))

    def run():
        scanner.reset()
        scanner.feed(data)
        return scanner.finish()

    reports = benchmark(run)
    assert reports
