"""Cluster scatter-gather differential suite (ISSUE 10 satellite).

The load-bearing property: a :class:`RemoteShardedMatcher` over a
3-shard :class:`LocalShardCluster` -- reached *through*
:class:`~tests.serve.chaoss.FaultProxy` interposers -- emits exactly
what an offline :class:`MultiStreamScanner` over the full unsharded
ruleset emits, per feed, across 64 interleaved streams, on every
engine.

The failure half: a shard that dies mid-flight (deterministic
byte-offset RST via FaultProxy, or a SIGKILLed shard process) must
surface as :class:`ClusterPartialResultError` naming the shard, the
affected streams, and the matches already delivered -- never a hang,
never silently dropped matches.  The cluster is a
:class:`~repro.serve.fleet.WorkerFleet` of shard processes, so a
killed shard comes back on its own port and a ruleset reload
re-buckets every shard.
"""

import contextlib
import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro import (
    ClusterPartialResultError,
    LocalShardCluster,
    MatchSession,
    MultiStreamScanner,
    RemoteShardedMatcher,
    RulesetMatcher,
    ShardedMatcher,
    available_engines,
)
from repro.compiler.pipeline import dedupe_rules
from repro.engine.parallel import mp_context, shard_rules
from repro.serve.cluster import parse_endpoint
from repro.serve.fleet import reuse_port_supported
from tests.helpers import planted_snort40
from tests.serve.chaoss import Fault, FaultProxy
from tests.serve.test_server import RULES, offline_events, traffic_for

ENGINES = available_engines()

#: every started LocalShardCluster forks its shard processes
needs_processes = pytest.mark.skipif(
    mp_context() is None, reason="multiprocessing unavailable"
)

STREAM_COUNT = 64


def interleaved_pairs(streams: int = STREAM_COUNT) -> list[tuple[str, bytes]]:
    """64 tagged streams, chunks interleaved round-robin across tags --
    the worst case for per-stream isolation."""
    per = {f"s{index:02d}": traffic_for(index) for index in range(streams)}
    longest = max(len(chunks) for chunks in per.values())
    return [
        (tag, chunks[round_])
        for round_ in range(longest)
        for tag, chunks in per.items()
        if round_ < len(chunks)
    ]


def remote_events(remote, pairs):
    """Mirror of :func:`tests.serve.test_server.offline_events` driven
    through a remote cluster matcher: per-feed emission order AND final
    per-stream results."""
    mux = MultiStreamScanner(remote)
    events: dict[str, list] = {}
    for tag, chunk in pairs:
        events.setdefault(tag, [])
        for match in mux.feed(tag, chunk):
            events[tag].append((match.rule, match.end))
    for tag in mux.streams:
        for match in mux.finish(tag):
            events[tag].append((match.rule, match.end))
    return events, mux.results()


class _Proxies:
    """One no-fault FaultProxy in front of every shard address."""

    def __init__(self, addresses, faults_for=None):
        self.proxies = [
            FaultProxy(address, faults=(faults_for or {}).get(index, ()))
            for index, address in enumerate(addresses)
        ]

    def __enter__(self) -> list[tuple[str, int]]:
        for proxy in self.proxies:
            proxy.start()
        return [proxy.address for proxy in self.proxies]

    def __exit__(self, *exc) -> None:
        for proxy in self.proxies:
            proxy.stop()


# -- the differential ------------------------------------------------------
@needs_processes
class TestClusterDifferential:
    @pytest.mark.parametrize(
        "engine,listener_fallback",
        [(engine, False) for engine in ENGINES]
        # the pass-the-listener ports: one engine is enough
        + [(ENGINES[0], True)],
    )
    def test_three_shards_equal_offline_on_64_streams(
        self, engine, listener_fallback, monkeypatch
    ):
        """64 interleaved streams through 3 network shards (behind TCP
        interposers) == one offline scanner, event for event -- also
        where each shard port is a listener the parent passes on
        (platforms without ``SO_REUSEPORT``)."""
        if listener_fallback:
            monkeypatch.setattr(
                "repro.serve.fleet.reuse_port_supported", lambda: False
            )
        pairs = interleaved_pairs()
        offline = offline_events(RulesetMatcher(RULES), pairs, engine=engine)
        offline_results = MultiStreamScanner(
            RulesetMatcher(RULES), engine=engine
        ).scan_tagged(pairs)

        with LocalShardCluster(RULES, shards=3, engine=engine) as cluster:
            assert cluster.mode == "processes"
            if listener_fallback:
                assert cluster._reuse is False
            with _Proxies(cluster.addresses) as endpoints:
                with RemoteShardedMatcher(endpoints) as remote:
                    events, results = remote_events(remote, pairs)

        assert events == offline
        assert set(results) == set(offline_results)
        for tag, result in offline_results.items():
            assert results[tag].bytes_scanned == result.bytes_scanned
            assert results[tag].matches == result.matches

    def test_three_shard_processes_cost_under_twice_one(self, tmp_path):
        """The per-frame FEED+PING barrier is a latency bound, not a
        second scan: every shard scans every byte but holds 1/3 of the
        rules, so the fully unfolded 40-rule Snort-style suite over 3
        shard processes must take < 2x one shard process on the same
        64 KiB frames (best of 3, the two clusters interleaved),
        merged matches equal to offline."""
        rules, data = planted_snort40()
        chunks = [data[at : at + (1 << 16)] for at in range(0, len(data), 1 << 16)]
        # one cache: the 1-shard child warm-starts from the offline compile
        unfolded = dict(unfold_threshold=float("inf"), cache_dir=str(tmp_path))
        offline = RulesetMatcher(rules, **unfolded).scan_stream(chunks)

        with contextlib.ExitStack() as stack:
            remotes = {}
            for shards in (1, 3):
                cluster = stack.enter_context(
                    LocalShardCluster(rules, shards=shards, **unfolded)
                )
                remote = stack.enter_context(RemoteShardedMatcher(cluster.addresses))
                result = remote.scan_stream(chunks)
                assert result.matches == offline.matches
                assert result.bytes_scanned == offline.bytes_scanned
                remotes[shards] = remote
            best = dict.fromkeys(remotes, float("inf"))
            for _ in range(3):
                for shards, remote in remotes.items():
                    start = time.perf_counter()
                    remote.scan_stream(chunks)
                    best[shards] = min(best[shards], time.perf_counter() - start)
        assert best[3] / best[1] < 2.0, best

    def test_remote_equals_in_process_sharded_matcher(self):
        """Same shard policy, same answers: the network cluster is
        observationally a ShardedMatcher with a wire in the middle."""
        data = b"za 1234 abc ..aaab 99 xyz"
        streams = [b"zabc", b"12345zzz", b"..aaab then xyz"]
        sharded = ShardedMatcher(RULES, shards=3)
        with LocalShardCluster(RULES, shards=3) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                local = sharded.scan(data)
                over_wire = remote.scan(data)
                assert over_wire.matches == local.matches
                assert over_wire.bytes_scanned == local.bytes_scanned
                assert remote.matched_rules(data) == sharded.matched_rules(data)
                assert [r.matches for r in remote.scan_many(streams)] == [
                    r.matches for r in sharded.scan_many(streams)
                ]

    def test_shard_assignment_is_the_parallel_policy(self):
        """LocalShardCluster buckets rules exactly like shard_rules over
        the deduplicated list -- one policy, local or networked."""
        noisy = [*RULES, ("hit", "abc"), ("hit", "different-pattern")]
        unique, skipped = dedupe_rules(noisy)
        cluster = LocalShardCluster(noisy, shards=3)  # never started
        assert cluster.buckets == shard_rules(unique, 3)
        assert cluster.duplicate_skipped == skipped
        assert cluster.rule_count == len(unique)


# -- shard failure ---------------------------------------------------------
@needs_processes
class TestShardFailure:
    def test_mid_flight_rst_yields_partial_result_error(self):
        """Shard 1's connection is RST mid-way through the second FEED
        frame (deterministic byte offset).  The second feed must raise
        ClusterPartialResultError naming shard 1 and stream s1, with the
        first feed's delivered matches intact."""
        # wire bytes on shard 1's connection, in order (the first
        # session on a fresh matcher always claims wire tag "<tag>~1"):
        wire = "s1~1"
        first_feed = (
            len(f"OPEN {wire}\n")
            + len(f"FEED {wire} 4\n") + 4
            + len("PING\n")
        )
        # cut after the second FEED frame's payload, before its PING:
        # the first feed has fully round-tripped (feed() awaits the
        # PONG), the second can never complete
        cut = first_feed + len(f"FEED {wire} 4\n") + 4

        with LocalShardCluster(RULES, shards=3) as cluster:
            faults = {1: [Fault("rst", cut)]}
            with _Proxies(cluster.addresses, faults_for=faults) as endpoints:
                with RemoteShardedMatcher(endpoints) as remote:
                    with pytest.raises(ClusterPartialResultError) as excinfo:
                        with remote.session(stream="s1") as session:
                            delivered = session.feed(b"zabc")
                            assert [(m.rule, m.end) for m in delivered] == [
                                ("hit", 4)
                            ]
                            session.feed(b"zabc")  # dies on shard 1

        err = excinfo.value
        assert err.op == "FEED"
        assert err.shard == 1
        assert err.address == endpoints[1]
        assert "s1" in err.streams
        # the first feed's matches survive the failure
        assert [(m.rule, m.end) for m in err.delivered["s1"]] == [("hit", 4)]
        assert isinstance(err.__cause__, (ConnectionError, OSError))
        assert [failure[0] for failure in err.failures] == [1]

    def test_killed_shard_yields_partial_result_error(self):
        """A SIGKILLed shard process (no proxy, no drain) mid-session:
        same error surface as a network fault."""
        with LocalShardCluster(RULES, shards=3) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                session = remote.session(stream="victim")
                assert [(m.rule, m.end) for m in session.feed(b"zabc")] == [
                    ("hit", 4)
                ]
                os.kill(cluster._workers[2].pid, signal.SIGKILL)
                with pytest.raises(ClusterPartialResultError) as excinfo:
                    for _ in range(50):  # the RST may take a beat to land
                        session.feed(b"12345")
        err = excinfo.value
        assert err.shard == 2
        assert "victim" in err.streams
        delivered = [(m.rule, m.end) for m in err.delivered["victim"]]
        assert delivered[0] == ("hit", 4)

    def test_failed_session_leaves_nothing_behind(self):
        """A session that fails mid-flight is over: it leaves the open
        set and its events leave the surviving shard clients, so the
        next failure names only the streams open at that time."""
        with LocalShardCluster(RULES, shards=3) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                session = remote.session(stream="victim")
                session.feed(b"zabc")
                os.kill(cluster._workers[2].pid, signal.SIGKILL)
                with pytest.raises(ClusterPartialResultError):
                    for _ in range(50):  # the RST may take a beat to land
                        session.feed(b"12345")
                assert remote._open_sessions == {}
                for client in remote._clients:
                    assert session._wire not in client._events
                with pytest.raises(ClusterPartialResultError) as excinfo:
                    remote.session(stream="next")  # shard 2 is still gone
        assert excinfo.value.streams == ("next",)

    def test_restart_and_reattach_recovers(self):
        """The cluster respawns a SIGKILLed shard on its own port, so
        reattach() with no address restores full service for sessions
        opened afterwards."""
        with LocalShardCluster(RULES, shards=3) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                before = remote.scan(b"zabc 123")
                addresses = cluster.addresses
                victim = cluster._workers[0].pid
                os.kill(victim, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if cluster.restarts == 1 and cluster.alive == 3:
                        break
                    time.sleep(0.1)
                assert (cluster.restarts, cluster.alive) == (1, 3)
                assert cluster._workers[0].pid != victim
                assert cluster.addresses == addresses
                remote.reattach(0)
                after = remote.scan(b"zabc 123")
                assert after.matches == before.matches
                assert after.bytes_scanned == before.bytes_scanned


# -- reload ----------------------------------------------------------------
@needs_processes
class TestClusterReload:
    def test_reload_rebuckets_every_shard(self):
        """reload(new_rules) splits the new ruleset with the same policy
        and swaps every shard to one new generation: a scan then equals
        the in-process sharded matcher over the new rules."""
        new_rules = [("hit", "abc"), ("fresh", "new!"), ("num", "[0-9]{4}"),
                     ("zed", "z+q")]
        data = b"zzq abc new! 1234 zq"
        with LocalShardCluster(RULES, shards=3) as cluster:
            assert cluster.reload(new_rules) == 1
            assert [s.generation for s in cluster.worker_stats()] == [1, 1, 1]
            assert cluster.buckets == shard_rules(new_rules, 3)
            with RemoteShardedMatcher(cluster.addresses) as remote:
                got = remote.scan(data)
        want = ShardedMatcher(new_rules, shards=3).scan(data)
        assert got.matches == want.matches
        assert got.bytes_scanned == want.bytes_scanned


# -- session semantics -----------------------------------------------------
@needs_processes
class TestClusterSession:
    def test_session_surface(self):
        with LocalShardCluster(RULES, shards=2) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                sunk = []
                assert isinstance(remote.session(), MatchSession)
                with remote.session(stream="tag", on_match=sunk.append) as s:
                    new = s.feed(b"zabc")
                    assert [(m.rule, m.end, m.stream) for m in new] == [
                        ("hit", 4, "tag")
                    ]
                result = s.result()
                assert result.bytes_scanned == 4
                assert result.matches == {"hit": [4]}
                assert [m.rule for m in sunk] == ["hit"]
                assert len(s.summaries()) == 2
                assert s.finish() == []  # idempotent
                with pytest.raises(RuntimeError, match=r"feed\(\) after finish"):
                    s.feed(b"more")

    def test_end_anchors_gate_until_finish(self):
        """$-anchored rules fire only at finish(), exactly like offline
        sessions (the remote CLOSE fans out end-of-data)."""
        with LocalShardCluster(RULES, shards=3) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                session = remote.session(stream="anchored")
                assert session.feed(b"..xyz") == []
                unlocked = session.finish()
                assert [(m.rule, m.end) for m in unlocked] == [("tail", 5)]

    def test_summaries_before_finish_raises(self):
        with LocalShardCluster(RULES, shards=2) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                session = remote.session()
                session.feed(b"zabc")
                with pytest.raises(RuntimeError, match="not finished"):
                    session.summaries()
                session.finish()
                assert len(session.summaries()) == 2

    def test_finished_sessions_leave_no_events_behind(self):
        """A finished session takes its events out of the long-lived
        shard clients: 50 sessions on one matcher leave none behind."""
        data = b"zabc 123 ..xyz"
        want = ShardedMatcher(RULES, shards=2).scan(data)
        with LocalShardCluster(RULES, shards=2) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                for index in range(50):
                    with remote.session(stream=f"s{index}") as session:
                        session.feed(data)
                    assert session.result().matches == want.matches
                for client in remote._clients:
                    assert client._events == {}
                    assert client._built == {}


# -- construction, stats ---------------------------------------------------
class TestClusterConstruction:
    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            RemoteShardedMatcher([])

    def test_unreachable_shard_names_itself(self):
        with pytest.raises(ConnectionError, match=r"cannot attach shard 0"):
            RemoteShardedMatcher([("127.0.0.1", 1)], retries=0)

    def test_parse_endpoint_rejects_bad_port(self):
        with pytest.raises(ValueError):
            parse_endpoint("host:notaport")

    def test_spawn_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            LocalShardCluster(RULES, shards=0)

    def test_in_process_mode_is_gone(self):
        with pytest.raises(ValueError, match="ShardedMatcher"):
            LocalShardCluster(RULES, shards=2, processes=False)

    @needs_processes
    @pytest.mark.parametrize("taken", [0, 1])
    @pytest.mark.parametrize("holder_reuses_port", [False, True])
    def test_failed_shard_process_raises_and_leaves_nothing(
        self, taken, holder_reuses_port
    ):
        """A fixed shard port that is already bound fails start() with
        the parent's own bind error while reserving the ports -- before
        any shard is forked -- and leaves nothing behind.  A holder
        that is itself an ``SO_REUSEPORT`` server (another cluster's
        shard) is refused too, not joined."""
        if holder_reuses_port and not reuse_port_supported():
            pytest.skip("no SO_REUSEPORT on this platform")
        with socket.socket() as holder, socket.socket() as probe:
            if holder_reuses_port:
                holder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            probe.bind(("127.0.0.1", 0))
            ports = [probe.getsockname()[1]] * 2
            ports[taken] = holder.getsockname()[1]
            probe.close()
            before = set(multiprocessing.active_children())
            cluster = LocalShardCluster(RULES, shards=2, ports=ports)
            with pytest.raises(OSError, match=r"(?i)address already in use"):
                cluster.start()
        assert cluster.mode is None
        assert cluster.addresses == []
        assert set(multiprocessing.active_children()) == before

    @needs_processes
    def test_stats_span_every_shard(self):
        with LocalShardCluster(RULES, shards=3) as cluster:
            with RemoteShardedMatcher(cluster.addresses) as remote:
                remote.ping()
                remote.scan(b"zabc")
                per_shard = remote.shard_stats()
                assert len(per_shard) == 3
                merged = remote.stats()
                assert merged.workers == 3
                # every shard carried the fanned-out stream
                assert all(s.streams_total >= 1 for s in per_shard)
                assert remote.engine == "remote"
                assert remote.skipped == []
