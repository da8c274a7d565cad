"""End-to-end match-server suite: real sockets, concurrent clients.

Acceptance (ISSUE 5): >= 64 concurrent connections with per-connection
match streams identical to offline
:class:`~repro.session.MultiStreamScanner` results; interleaved tagged
streams; mid-stream disconnects leave other sessions intact; graceful
shutdown drains queued work.

Every test runs a real :class:`~repro.serve.MatchServer` on an
ephemeral 127.0.0.1 port inside one event loop (no pytest-asyncio
dependency; ``run()`` wraps ``asyncio.run`` with a hang guard).
"""

import asyncio

import pytest

from repro.engine.backends import available_engines
from repro.engine.parallel import FeedPool, ShardedMatcher
from repro.matching import RulesetMatcher
from repro.serve import MatchClient, MatchServer, ServerError
from repro.session import MultiStreamScanner

RULES = [
    ("hit", r"abc"),
    ("num", r"[0-9]{3,5}"),
    ("tail", r"xyz$"),
    ("ctr", r"[^a]a{2,4}b"),
]

#: chunk repertoire with cross-chunk matches, counters, and $-anchors
CHUNKS = [b"za", b"bc", b"ab", b"c123", b"45xyz", b"..aaab", b"9999", b"xy", b"z"]


def run(coro):
    """Drive one test coroutine with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def traffic_for(index: int) -> list[bytes]:
    """A deterministic per-stream chunk sequence (varied but repeatable)."""
    length = index % 5 + 2
    return [CHUNKS[(index + j) % len(CHUNKS)] for j in range(length)]


def offline_events(matcher, pairs, engine=None):
    """What an offline MultiStreamScanner emits for the same traffic:
    ``{tag: [(rule, end), ...]}`` in emission order."""
    mux = MultiStreamScanner(matcher, engine=engine)
    events: dict[str, list] = {}
    for tag, chunk in pairs:
        events.setdefault(tag, [])
        for match in mux.feed(tag, chunk):
            events[tag].append((match.rule, match.end))
    for tag in mux.streams:
        for match in mux.finish(tag):
            events[tag].append((match.rule, match.end))
    return events


def served_events(client: MatchClient) -> dict:
    return {
        tag: [(match.rule, match.end) for match in matches]
        for tag, matches in client.matches.items()
    }


async def feed_pairs(client: MatchClient, pairs) -> dict:
    """Drive one client through interleaved (tag, chunk) pairs; returns
    the per-stream CLOSED summaries."""
    seen: list[str] = []
    for tag, chunk in pairs:
        if tag not in client.matches:
            seen.append(tag)
            await client.open(tag)
        await client.feed(tag, chunk)
    return {tag: await client.close_stream(tag) for tag in seen}


class TestServedEqualsOffline:
    def test_interleaved_tags_one_connection(self):
        matcher = RulesetMatcher(RULES)
        pairs = [
            ("a", b"za"), ("b", b"12"), ("a", b"bc"), ("b", b"34..xyz"),
            ("c", b"..aaab"), ("a", b"abc"),
        ]

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                summaries = await feed_pairs(client, pairs)
                await client.quit()
                return served_events(client), summaries

        served, summaries = run(main())
        assert served == offline_events(matcher, pairs)
        assert summaries["a"].bytes_scanned == 7
        assert summaries["a"].matches_emitted == len(served["a"])

    @pytest.mark.parametrize("engine", available_engines())
    def test_every_backend_serves_identically(self, engine):
        matcher = RulesetMatcher(RULES)
        pairs = [("s", chunk) for chunk in CHUNKS]

        async def main():
            async with MatchServer(matcher, port=0, engine=engine) as server:
                client = await MatchClient.connect(port=server.port)
                await feed_pairs(client, pairs)
                await client.quit()
                return served_events(client)

        assert run(main()) == offline_events(matcher, pairs, engine=engine)

    def test_sharded_matcher_served(self):
        matcher = ShardedMatcher(RULES, shards=3)
        pairs = [("s1", b"zabc123"), ("s2", b"..aaab45xyz"), ("s1", b"xyz")]

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                await feed_pairs(client, pairs)
                await client.quit()
                return served_events(client)

        assert run(main()) == offline_events(matcher, pairs)

    def test_dollar_anchor_gated_to_close(self):
        matcher = RulesetMatcher(RULES)

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                await client.open("s")
                await client.feed("s", b"..xyz")
                await client.ping()  # all prior frames processed (FIFO)
                mid_stream = [m.rule for m in client.matches["s"]]
                await client.close_stream("s")
                await client.quit()
                return mid_stream, served_events(client)

        mid_stream, served = run(main())
        assert "tail" not in mid_stream  # withheld until end-of-data
        assert ("tail", 5) in served["s"]


class TestConcurrentConnections:
    def test_64_concurrent_connections_equal_offline(self):
        """The acceptance bar: 64 concurrent client connections, each
        with its own tagged streams, every match stream identical to
        the offline scanner's."""
        matcher = RulesetMatcher(RULES)
        n = 64
        per_client = {
            i: [(f"c{i}-s{j}", chunk) for j in range(i % 3 + 1)
                for chunk in traffic_for(i + j)]
            for i in range(n)
        }

        async def one_client(port, pairs):
            client = await MatchClient.connect(port=port)
            await feed_pairs(client, pairs)
            await client.quit()
            return served_events(client)

        async def main():
            async with MatchServer(matcher, port=0) as server:
                results = await asyncio.gather(
                    *(one_client(server.port, pairs)
                      for pairs in per_client.values())
                )
                # a client's BYE can land just before its handler's
                # final bookkeeping; wait for the counters to settle
                for _ in range(200):
                    if server.stats().connections_open == 0:
                        break
                    await asyncio.sleep(0.01)
                stats = server.stats()
            return results, stats

        results, stats = run(main())
        assert stats.connections_total == n
        assert stats.connections_open == 0
        assert stats.streams_open == 0
        for i, served in zip(per_client, results):
            assert served == offline_events(matcher, per_client[i]), i

    def test_mid_stream_disconnect_leaves_others_intact(self):
        """The casualty dies by injected RST at an exact wire offset
        (the chaos layer), not by aborting its own transport: the
        server sees a peer reset exactly as if the client crashed."""
        from tests.serve.chaoss import Fault, FaultProxy

        matcher = RulesetMatcher(RULES)
        survivor_pairs = [("ok", chunk) for chunk in CHUNKS]
        # the reset lands exactly at the end of the casualty's SECOND
        # feed: the first OPEN/FEED/PING round-trip completes cleanly
        # (forwarded bytes stay below the offset), then the next FEED
        # frame trips the fault the moment its last byte passes
        sent = len(b"OPEN dying\n") + len(b"FEED dying 2\n") + 2 + len(b"PING\n")
        sent += len(b"FEED dying 1\n") + 1

        async def main():
            async with MatchServer(matcher, port=0) as server:
                with FaultProxy(
                    ("127.0.0.1", server.port), faults=[Fault("rst", sent)]
                ) as proxy:
                    # the casualty: opens a stream, feeds half a match, dies
                    casualty = await MatchClient.connect(port=proxy.port)
                    await casualty.open("dying")
                    await casualty.feed("dying", b"ab")
                    await casualty.ping()
                    with pytest.raises((ConnectionError, OSError)):
                        await casualty.feed("dying", b"c")  # trips the RST
                        await casualty.ping()
                    await casualty.aclose()

                # the survivor keeps streaming, before and after the RST
                survivor = await MatchClient.connect(port=server.port)
                await feed_pairs(survivor, survivor_pairs)
                await survivor.quit()

                # server noticed the death and reclaimed the stream
                for _ in range(100):
                    if server.stats().streams_open == 0:
                        break
                    await asyncio.sleep(0.02)
                stats = server.stats()
                return served_events(survivor), stats

        served, stats = run(main())
        assert served == offline_events(matcher, survivor_pairs)
        assert stats.streams_open == 0
        assert stats.connections_open == 0
        assert stats.streams_total == 2

    def test_backpressure_bounded_queue_still_lossless(self):
        """queue_depth=1 forces constant reader stalls; every frame
        must still be scanned (backpressure, not loss)."""
        matcher = RulesetMatcher(RULES)
        pairs = [("s", CHUNKS[i % len(CHUNKS)]) for i in range(200)]

        async def main():
            async with MatchServer(matcher, port=0, queue_depth=1) as server:
                client = await MatchClient.connect(port=server.port)
                summaries = await feed_pairs(client, pairs)
                await client.quit()
                return served_events(client), summaries

        served, summaries = run(main())
        assert served == offline_events(matcher, pairs)
        assert summaries["s"].bytes_scanned == sum(len(c) for _, c in pairs)


class TestShutdownAndErrors:
    def test_graceful_stop_drains_queued_work(self):
        """stop(drain=True) finishes queued feeds, flushes their
        matches, and says BYE before closing the transport."""
        matcher = RulesetMatcher(RULES)
        chunks = [CHUNKS[i % len(CHUNKS)] for i in range(40)]

        async def main():
            server = await MatchServer(matcher, port=0).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"OPEN s\n")
            for chunk in chunks:
                writer.write(b"FEED s %d\n" % len(chunk) + chunk)
            await writer.drain()
            ack = await reader.readline()  # OPEN processed; feeds queued
            while server.stats().feeds < 10:  # let a batch reach the queue
                await asyncio.sleep(0.005)
            await server.stop(drain=True)
            wire = await reader.read()
            writer.close()
            return ack + wire

        wire = run(main())
        lines = wire.decode("latin-1").splitlines()
        assert lines[0] == "OK OPEN s 0"
        assert lines[-1] == "BYE"
        # drained matches are a prefix of the offline emission sequence
        # (frames still in socket buffers at stop() time are dropped,
        # but nothing is truncated or reordered)
        pairs = [("s", chunk) for chunk in chunks]
        expected = offline_events(matcher, pairs)["s"]
        got = [
            (line.split(" ", 4)[4], int(line.split(" ", 4)[2]))
            for line in lines[1:-1]
            if line.startswith("MATCH ")
        ]
        end_gated = [e for e in expected if e[0] == "tail"]
        streamed = [e for e in expected if e not in end_gated]
        assert got == streamed[: len(got)]

    def test_quit_after_ping_drains_everything(self):
        """A client that PINGs before QUIT has every feed processed, so
        drain equality is exact."""
        matcher = RulesetMatcher(RULES)
        pairs = [("s", chunk) for chunk in CHUNKS * 4]

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                summaries = await feed_pairs(client, pairs)
                await client.quit()
                return served_events(client), summaries

        served, summaries = run(main())
        assert served == offline_events(matcher, pairs)

    def test_application_errors_keep_the_connection(self):
        matcher = RulesetMatcher(RULES)

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                await client.open("s")
                # double OPEN is rejected but not fatal
                with pytest.raises(ServerError):
                    await client.open("s")
                # pipelined FEEDs to an unknown stream: one ERR per
                # frame into .errors, regardless of server-side batching
                for _ in range(3):
                    await client.feed("ghost", b"abc")
                await client.ping()  # connection still alive
                await client.feed("s", b"abc")
                await client.close_stream("s")
                stats = await client.stats()
                await client.quit()
                return client.errors, served_events(client), stats

        errors, served, stats = run(main())
        assert sum("ghost" in message for message in errors) == 3
        assert served["s"] == [("hit", 3)]
        assert stats["errors"] == 4

    def test_protocol_error_closes_the_connection(self):
        matcher = RulesetMatcher(RULES)

        async def main():
            async with MatchServer(matcher, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"BOGUS frame\n")
                await writer.drain()
                wire = await reader.read()  # server answers ERR, hangs up
                writer.close()
                return wire

        wire = run(main())
        assert wire.startswith(b"ERR ")

    def test_tag_reuse_after_close_is_a_fresh_stream(self):
        matcher = RulesetMatcher(RULES)

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                await client.open("s")
                await client.feed("s", b"zabc")  # one whole match...
                first = await client.close_stream("s")
                await client.open("s")
                await client.feed("s", b"ab")  # ...then half a match
                await client.close_stream("s")
                await client.open("s")
                await client.feed("s", b"c")  # must NOT complete it
                third = await client.close_stream("s")
                await client.quit()
                return served_events(client), first, third

        served, first, third = run(main())
        assert served["s"] == [("hit", 4)]  # no cross-incarnation match
        assert (first.bytes_scanned, first.matches_emitted) == (4, 1)
        # the third incarnation's summary starts from zero on both axes
        assert (third.bytes_scanned, third.matches_emitted) == (1, 0)

    def test_stats_snapshot_counters(self):
        matcher = RulesetMatcher(RULES)

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                await client.open("s")
                await client.feed("s", b"zabc")
                await client.close_stream("s")
                stats = await client.stats()
                await client.quit()
                return stats

        stats = run(main())
        assert stats["bytes_scanned"] == 4
        assert stats["feeds"] == 1
        assert stats["matches_emitted"] == 1
        assert stats["streams_total"] == 1
        assert stats["streams_open"] == 0
        assert stats["uptime_seconds"] > 0
        assert stats["busy_seconds"] > 0
        assert stats["throughput_bps"] == pytest.approx(
            4 / stats["busy_seconds"]
        )

    def test_feed_splits_oversized_chunks(self, monkeypatch):
        """Client-side chunk splitting: a payload larger than the frame
        cap travels as several FEED frames, same scan result."""
        import repro.serve.client as client_mod

        monkeypatch.setattr(client_mod, "MAX_FEED", 4)
        matcher = RulesetMatcher(RULES)
        payload = b"..abc..123..abc"

        async def main():
            async with MatchServer(matcher, port=0) as server:
                client = await MatchClient.connect(port=server.port)
                await client.open("s")
                await client.feed("s", payload)
                await client.close_stream("s")
                stats = await client.stats()
                await client.quit()
                return served_events(client), stats

        served, stats = run(main())
        assert stats["feeds"] == 4  # 15 bytes / 4-byte frames
        assert served == offline_events(matcher, [("s", payload)])


class TestFeedPool:
    def test_submit_returns_future_results(self):
        with FeedPool(workers=2) as pool:
            assert not pool.degraded
            assert pool.submit(sum, [1, 2, 3]).result() == 6

    def test_default_pool_runs_one_job_at_a_time(self):
        # two scanning threads trade the GIL at every NumPy lane op
        # (FeedPool docstring), so the unsized pool is one thread
        import threading
        import time

        names = []

        def job():
            names.append(threading.current_thread().name)
            time.sleep(0.01)

        with FeedPool() as pool:
            for future in [pool.submit(job) for _ in range(4)]:
                future.result()
        assert len(names) == 4 and len(set(names)) == 1

    def test_exceptions_travel_through_the_future(self):
        with FeedPool(workers=1) as pool:
            future = pool.submit(int, "nope")
            with pytest.raises(ValueError):
                future.result()

    def test_degraded_pool_runs_inline(self, monkeypatch):
        import concurrent.futures as futures_mod

        class Boom:
            def __init__(self, *a, **k):
                raise RuntimeError("no threads here")

        monkeypatch.setattr(futures_mod, "ThreadPoolExecutor", Boom)
        pool = FeedPool()
        assert pool.degraded
        assert pool.submit(sum, [4, 5]).result() == 9
        failing = pool.submit(int, "nope")
        with pytest.raises(ValueError):
            failing.result()
        pool.shutdown()  # no-op, must not raise

    def test_submit_after_shutdown_degrades_to_inline(self):
        pool = FeedPool(workers=1)
        pool.shutdown()
        assert pool.submit(sum, [1, 2]).result() == 3
