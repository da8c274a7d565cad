"""Fleet suite: multi-process serving, hot reload, supervision.

Covers ISSUE 7: `WorkerFleet` (SO_REUSEPORT sharding + listener
fallback), warm starts from the shared ruleset cache, the 64-connection
reload-under-load e2e (generation pinning: in-flight streams drain on
old tables, post-swap streams scan with the new ruleset), crash
respawn within the restart budget, merged fleet stats, the control
socket, connect backoff, and the `MatcherHandle` swap primitive.

Fleet tests fork real worker processes and talk to them over real
sockets; they are skipped only where multiprocessing itself is
unavailable.
"""

import asyncio
import os
import signal
import socket
import time

import pytest

from repro.engine.backends import available_engines
from repro.engine.parallel import mp_context
from repro.matching import RulesetMatcher
from repro.serve import (
    ControlClient,
    ControlServer,
    MatchClient,
    MatcherHandle,
    MatchServer,
    WorkerFleet,
    backoff_delays,
    merge_server_stats,
    scan_tagged_remote,
)
from repro.serve.stats import ServerStats
from repro.session import MultiStreamScanner

pytestmark = pytest.mark.skipif(
    mp_context() is None, reason="multiprocessing unavailable"
)

ENGINES = available_engines()

OLD_RULES = [("keep", r"abc"), ("gone", r"old[0-9]"), ("num", r"[0-9]{3}")]
NEW_RULES = [("keep", r"abc"), ("fresh", r"new!"), ("num", r"[0-9]{3}")]

#: fed before the reload: fires "keep", "gone", "num" on the old tables
PRE_CHUNK = b"..abc old7 123.."
#: fed to the *pinned* stream after the swap: must still scan with the
#: OLD tables ("gone" fires, "fresh" does not)
PIN_CHUNK = b"old8 new! abc"
#: fed to a stream opened after the swap: NEW tables ("fresh" fires,
#: "gone" does not)
POST_CHUNK = b"new! abc old9 456"


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def offline_events(rules, chunks, engine=None):
    """``[(rule, end), ...]`` an offline scan of one stream emits."""
    mux = MultiStreamScanner(RulesetMatcher(rules), engine=engine)
    events = []
    for chunk in chunks:
        events.extend((m.rule, m.end) for m in mux.feed("s", chunk))
    events.extend((m.rule, m.end) for m in mux.finish("s"))
    return events


class TestBackoff:
    def test_exponential_growth_under_cap(self):
        delays = list(
            backoff_delays(5, base=0.1, cap=1.0, jitter=lambda lo, hi: hi)
        )
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0])

    def test_full_jitter_spans_zero_to_ceiling(self):
        floors = list(backoff_delays(4, jitter=lambda lo, hi: lo))
        assert floors == [0.0] * 4

    def test_default_jitter_within_bounds(self):
        for attempt, delay in enumerate(backoff_delays(6, base=0.05, cap=0.4)):
            assert 0.0 <= delay <= min(0.4, 0.05 * 2 ** attempt)

    def test_zero_attempts_yields_nothing(self):
        assert list(backoff_delays(0)) == []

    def test_client_connect_retries_ride_out_late_bind(self):
        """A client started before the server wins via backoff retries."""
        matcher = RulesetMatcher(OLD_RULES)

        async def main():
            # reserve a port, release it, then bind it late
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()

            async def late_server():
                await asyncio.sleep(0.3)
                server = MatchServer(matcher, port=port)
                await server.start()
                return server

            server_task = asyncio.ensure_future(late_server())
            client = await MatchClient.connect(
                port=port, retries=10, backoff_base=0.05, backoff_cap=0.2
            )
            await client.ping()
            await client.quit()
            await (await server_task).stop()

        run(main())

    def test_connect_without_retries_still_fails_fast(self):
        async def main():
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            with pytest.raises((ConnectionError, OSError)):
                await MatchClient.connect(port=port, retries=0)

        run(main())


class TestMatcherHandle:
    def test_auto_increment_and_explicit_generation(self):
        handle = MatcherHandle("m0")
        assert handle.current() == (0, "m0")
        assert handle.swap("m1") == 1
        assert handle.swap("m2", generation=7) == 7
        assert handle.current() == (7, "m2")
        assert handle.generation == 7
        assert handle.matcher == "m2"

    def test_current_returns_one_consistent_pair(self):
        handle = MatcherHandle("m0")
        generation, matcher = handle.current()
        handle.swap("m1")
        # the caller's pinned pair is untouched by the swap
        assert (generation, matcher) == (0, "m0")


class TestServerReload:
    def test_streams_pin_their_open_time_generation(self):
        """In-flight streams drain on old tables; new streams (and
        their wire lines) carry the new generation."""

        async def main():
            server = MatchServer(RulesetMatcher(OLD_RULES), port=0)
            async with server:
                client = await MatchClient.connect(port=server.port)
                await client.open("pinned")
                await client.feed("pinned", PRE_CHUNK)
                generation = await server.reload(
                    lambda: RulesetMatcher(NEW_RULES)
                )
                assert generation == 1
                # the pinned stream keeps scanning with the OLD ruleset
                await client.feed("pinned", PIN_CHUNK)
                pinned = await client.close_stream("pinned")
                # a fresh stream scans with the NEW ruleset
                await client.open("post")
                await client.feed("post", POST_CHUNK)
                post = await client.close_stream("post")
                stats = await client.stats()
                await client.quit()
                return client.matches, pinned, post, stats

        matches, pinned, post, stats = run(main())
        assert pinned.generation == 0
        assert post.generation == 1
        assert stats["generation"] == 1
        pinned_events = [(m.rule, m.end) for m in matches["pinned"]]
        assert pinned_events == offline_events(
            OLD_RULES, [PRE_CHUNK, PIN_CHUNK]
        )
        assert all(m.generation == 0 for m in matches["pinned"])
        post_events = [(m.rule, m.end) for m in matches["post"]]
        assert post_events == offline_events(NEW_RULES, [POST_CHUNK])
        assert all(m.generation == 1 for m in matches["post"])
        assert {m.rule for m in matches["post"]} >= {"fresh"}
        assert "gone" not in {m.rule for m in matches["post"]}

    def test_reload_before_start_swaps_inline(self):
        server = MatchServer(RulesetMatcher(OLD_RULES), port=0)

        async def main():
            return await server.reload(lambda: RulesetMatcher(NEW_RULES))

        assert run(main()) == 1
        assert server.handle.generation == 1


class TestFleetServing:
    @pytest.mark.parametrize("reuse_port", [True, False])
    def test_fleet_serves_equal_to_offline(self, reuse_port):
        """Both sharding modes (SO_REUSEPORT and the passed-listener
        fallback) serve byte-identical results to an offline scan."""
        chunks = [PRE_CHUNK, PIN_CHUNK, POST_CHUNK]
        with WorkerFleet(
            OLD_RULES, workers=2, port=0, reuse_port=reuse_port
        ) as fleet:
            matches, summaries, stats = scan_tagged_remote(
                fleet.host, fleet.port, [("s", c) for c in chunks], retries=3
            )
        assert [(m.rule, m.end) for m in matches["s"]] == offline_events(
            OLD_RULES, chunks
        )
        assert summaries["s"].generation == 0
        assert stats["workers"] == 1  # a connection sees its own worker
        assert stats["worker"] in (0, 1)

    def test_workers_warm_start_from_shared_cache(self, tmp_path):
        with WorkerFleet(
            OLD_RULES, workers=2, port=0, cache_dir=str(tmp_path)
        ) as fleet:
            # the parent's validation compile filled the cache, so
            # every worker loaded the artifact instead of recompiling
            assert fleet.cache_hits == [True, True]
            assert fleet.alive == 2

    def test_merged_stats_sum_across_workers(self):
        pairs = [("a", b"abc old1 123"), ("b", b"456 abc")]
        with WorkerFleet(OLD_RULES, workers=2, port=0) as fleet:
            for tag, chunk in pairs:
                scan_tagged_remote(fleet.host, fleet.port, [(tag, chunk)])
            merged = fleet.stats()
            per_worker = fleet.worker_stats()
        assert merged.workers == 2
        assert merged.worker is None
        assert {snap.worker for snap in per_worker} == {0, 1}
        assert merged.connections_total == 2
        assert merged.streams_total == 2
        assert merged.bytes_scanned == sum(len(c) for _, c in pairs)
        assert merged.bytes_scanned == sum(
            snap.bytes_scanned for snap in per_worker
        )

    def test_merge_server_stats_helper(self):
        a = ServerStats(engine="auto", bytes_scanned=10, busy_seconds=1.0,
                        generation=2, worker=0)
        b = ServerStats(engine="auto", bytes_scanned=30, busy_seconds=1.0,
                        generation=1, worker=1)
        merged = merge_server_stats([a, b])
        assert merged.bytes_scanned == 40
        assert merged.generation == 1  # min: the floor every worker reached
        assert merged.workers == 2
        assert merged.throughput_bps == pytest.approx(20.0)

    def test_merge_server_stats_empty_and_one_element(self):
        # the cluster path folds whatever shard subset responded: zero
        # snapshots merge to a neutral snapshot, one merges to itself
        empty = merge_server_stats([])
        assert empty.workers == 0
        assert empty.engine == "none"
        assert empty.bytes_scanned == 0 and empty.uptime_seconds == 0.0
        assert empty.throughput_bps is None
        one = ServerStats(engine="auto", bytes_scanned=10, busy_seconds=2.0,
                          generation=3, worker=1)
        merged = merge_server_stats([one])
        assert merged.bytes_scanned == 10
        assert merged.generation == 3
        assert merged.worker is None  # merged views never name one worker
        assert merged.workers == 1

    def test_crashed_worker_respawns_within_budget(self):
        with WorkerFleet(
            OLD_RULES, workers=2, port=0, restart_budget=2
        ) as fleet:
            victim = fleet._workers[0].pid
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if fleet.restarts >= 1 and fleet.alive == 2:
                    break
                time.sleep(0.1)
            assert fleet.restarts >= 1
            assert fleet.alive == 2
            assert victim not in [w.pid for w in fleet._workers]
            # the respawned fleet still serves correctly
            matches, _, _ = scan_tagged_remote(
                fleet.host, fleet.port, [("s", PRE_CHUNK)], retries=5
            )
            assert [(m.rule, m.end) for m in matches["s"]] == offline_events(
                OLD_RULES, [PRE_CHUNK]
            )


class TestFleetReloadUnderLoad:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_64_connections_reload_mid_stream(self, engine):
        """The ISSUE 7 acceptance e2e, per engine: 64
        connections through a 2-worker fleet, SIGHUP-equivalent reload
        mid-stream to a ruleset with one added + one removed rule.
        Asserts (a) no connection drops, (b) every match carries the
        generation it was scanned under, (c) pinned streams drain on
        the old ruleset and post-swap streams equal offline scanning
        with the new one."""
        n = 64

        async def drive(fleet):
            clients = [
                await MatchClient.connect(port=fleet.port, retries=5)
                for _ in range(n)
            ]
            for client in clients:
                await client.open("pre")
                await client.feed("pre", PRE_CHUNK)
            generation = await asyncio.to_thread(fleet.reload, NEW_RULES)
            # mid-stream: the open "pre" streams stay pinned to gen 0
            for client in clients:
                await client.feed("pre", PIN_CHUNK)
            pre = [await client.close_stream("pre") for client in clients]
            # post-swap streams (same 64 connections) use the new tables
            for client in clients:
                await client.open("post")
                await client.feed("post", POST_CHUNK)
            post = [await client.close_stream("post") for client in clients]
            events = [client.matches for client in clients]
            errors = [client.errors for client in clients]
            for client in clients:
                await client.quit()
            return generation, pre, post, events, errors

        with WorkerFleet(
            OLD_RULES, workers=2, port=0, engine=engine
        ) as fleet:
            generation, pre, post, events, errors = run(drive(fleet))
            merged = fleet.stats()

        assert generation == 1
        # (a) no connection drops: all 64 made it through both phases
        assert len(pre) == len(post) == n
        assert all(not errs for errs in errors)
        assert merged.connections_total == n
        assert merged.streams_total == 2 * n
        assert merged.generation == 1
        # (b) + (c): per-stream generation stamps and offline equality
        expected_pre = offline_events(
            OLD_RULES, [PRE_CHUNK, PIN_CHUNK], engine=engine
        )
        expected_post = offline_events(NEW_RULES, [POST_CHUNK], engine=engine)
        for summary in pre:
            assert summary.generation == 0
        for summary in post:
            assert summary.generation == 1
        for matches in events:
            assert [(m.rule, m.end) for m in matches["pre"]] == expected_pre
            assert all(m.generation == 0 for m in matches["pre"])
            assert [(m.rule, m.end) for m in matches["post"]] == expected_post
            assert all(m.generation == 1 for m in matches["post"])
            rules_seen = {m.rule for m in matches["post"]}
            assert "fresh" in rules_seen and "gone" not in rules_seen

    def test_noop_reload_bumps_generation_only(self):
        with WorkerFleet(OLD_RULES, workers=2, port=0) as fleet:
            assert fleet.reload() == 1
            assert fleet.reload() == 2
            _, summaries, stats = scan_tagged_remote(
                fleet.host, fleet.port, [("s", PRE_CHUNK)]
            )
        assert summaries["s"].generation == 2
        assert stats["generation"] == 2

    def test_bad_ruleset_fails_in_parent_without_touching_workers(self):
        from repro.serve import FleetError

        with WorkerFleet(OLD_RULES, workers=2, port=0) as fleet:
            # every rule broken: the parent's validation compile
            # rejects the reload before any worker hears about it
            with pytest.raises(FleetError, match="no rule compiled"):
                fleet.reload(rules=[("broken", "a(bc")])
            assert fleet.generation == 0
            # the fleet still serves the original ruleset
            matches, _, _ = scan_tagged_remote(
                fleet.host, fleet.port, [("s", PRE_CHUNK)]
            )
            assert [(m.rule, m.end) for m in matches["s"]] == offline_events(
                OLD_RULES, [PRE_CHUNK]
            )


class TestControlSocket:
    def test_fleet_control_roundtrip(self, tmp_path):
        path = str(tmp_path / "repro-control.sock")
        stopped = []
        with WorkerFleet(OLD_RULES, workers=2, port=0) as fleet:
            with ControlServer(fleet, path, on_stop=lambda: stopped.append(1)):
                with ControlClient(path) as ctl:
                    assert ctl.ping()
                    assert ctl.generation() == 0
                    assert ctl.reload() == 1
                    assert ctl.generation() == 1
                    snapshot = ctl.stats()
                    assert snapshot["workers"] == 2
                    assert snapshot["generation"] == 1
                    assert ctl.command("NONSENSE").startswith("ERR ")
                    ctl.stop()
        assert stopped == [1]
        assert not os.path.exists(path)

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)  # bound but crashed: never listening
        stale.close()

        class Target:
            generation = 0

        with ControlServer(Target(), path):
            with ControlClient(path) as ctl:
                assert ctl.generation() == 0
