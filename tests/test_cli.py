"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


def _cli_env() -> dict:
    """The environment a ``python -m repro`` subprocess needs to import
    this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _connect_json(port, tagged, env) -> dict:
    """``repro connect --json`` of the tagged-line file ``tagged``."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "connect",
         "--port", port, "--input", str(tagged), "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    ).stdout
    return json.loads(out)


class TestAnalyze:
    def test_unambiguous(self, capsys):
        assert main(["analyze", "^a{3}b"]) == 0
        out = capsys.readouterr().out
        assert "unambiguous" in out

    def test_ambiguous_with_witness(self, capsys):
        assert main(["analyze", ".*x{2}", "--method", "exact", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "AMBIGUOUS" in out
        assert "witness=" in out

    def test_no_counting(self, capsys):
        assert main(["analyze", "abc"]) == 0
        assert "nothing to analyze" in capsys.readouterr().out


class TestCompile:
    def test_prints_resources_and_mnrl(self, capsys):
        assert main(["compile", "a(bc){2,4}d"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert '"type": "counter"' in out

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.mnrl.json"
        assert main(["compile", "a{2,9}", "-o", str(target)]) == 0
        assert target.exists()
        from repro.mnrl.serialize import load

        network = load(str(target))
        assert network.node_count() >= 1

    def test_threshold_flag(self, capsys):
        assert main(["compile", "a(bc){2,4}d", "--threshold", "inf"]) == 0
        out = capsys.readouterr().out
        assert "0 counters" in out


class TestScan:
    def test_scan_files(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "# comment line\n"
            "hit\tabc\n"
            "miss\tzzz{2,5}\n"
            "broken\t(a)\\1\n"
        )
        data = tmp_path / "data.bin"
        data.write_bytes(b"xxabcxx")
        assert main(["scan", "--rules", str(rules), "--input", str(data)]) == 0
        captured = capsys.readouterr()
        assert "hit: 1 match(es) at [5]" in captured.out
        # non-verbose mode summarizes skips; --verbose names the rules
        assert "skipped 1 rule(s)" in captured.err
        assert main(
            ["scan", "--rules", str(rules), "--input", str(data), "--verbose"]
        ) == 0
        captured = capsys.readouterr()
        assert "skipped broken" in captured.err
        assert "compiled in" in captured.err
        assert "-O0" in captured.out

    def test_no_matches(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("r\tzzz\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"abc")
        main(["scan", "--rules", str(rules), "--input", str(data)])
        assert "no matches" in capsys.readouterr().out

    def test_scan_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        monkeypatch.setattr(
            "sys.stdin",
            type("S", (), {"buffer": io.BytesIO(b"xxabcxx")})(),
        )
        assert main(["scan", "--rules", str(rules), "--input", "-"]) == 0
        assert "hit: 1 match(es) at [5]" in capsys.readouterr().out

    def test_scan_small_chunks_match_whole(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tab{2,4}c\nend\tc$\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"zabbbc..abbc")
        for extra in ([], ["--chunk-size", "1"]):
            assert (
                main(["scan", "--rules", str(rules), "--input", str(data)] + extra)
                == 0
            )
        first, second = capsys.readouterr().out.split("scanned", 2)[1:]
        assert first == second

    def test_scan_reference_engine(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"xxabcxx")
        args = ["scan", "--rules", str(rules), "--input", str(data)]
        assert main(args + ["--engine", "reference"]) == 0
        assert "hit: 1 match(es) at [5]" in capsys.readouterr().out

    def test_scan_engine_choices(self, tmp_path, capsys):
        """--engine accepts every available engine name plus auto, and
        all of them agree on the matches."""
        from repro.engine.backends import available_engines

        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"xxabcxx")
        args = ["scan", "--rules", str(rules), "--input", str(data)]
        for engine in ["auto", *available_engines()]:
            assert main(args + ["--engine", engine]) == 0, engine
            assert "hit: 1 match(es) at [5]" in capsys.readouterr().out

    def test_scan_verbose_reports_available_engines(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"xxabcxx")
        args = ["scan", "--rules", str(rules), "--input", str(data), "-v"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "engines available: stream" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_shards_below_one_is_a_usage_error(self, tmp_path, capsys, count):
        rules = tmp_path / "rules.txt"
        rules.write_text("a\tabc\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--rules", str(rules), "--shards", count])
        assert exit_info.value.code == 2
        assert "--shards: must be >= 1" in capsys.readouterr().err

    def test_only_cluster_splits_a_ruleset(self, tmp_path, capsys):
        # scan and serve hold one compiled ruleset; --shards is cluster's
        rules = tmp_path / "rules.txt"
        rules.write_text("a\tabc\n")
        for command in (["scan", "--input", str(rules)], ["serve"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--rules", str(rules), "--shards", "2"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, count):
        rules = tmp_path / "rules.txt"
        rules.write_text("a\tabc\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--rules", str(rules), "--workers", count])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --workers: must be >= 1" in err
        assert "Traceback" not in err


class TestScanStreams:
    def test_interleaved_tagged_streams(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\nnum\t[0-9]{3,5}\n")
        data = tmp_path / "streams.txt"
        # "abc" split across stream a's chunks, b interleaved between
        data.write_text("a\tza\nb\t12\na\tbc\nb\t34..\n")
        assert (
            main(
                ["scan", "--rules", str(rules), "--input", str(data), "--streams"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "served 2 stream(s)" in out
        assert "stream a: 4 bytes, 1 match(es)" in out
        assert "hit: 1 match(es) at [4]" in out
        assert "stream b: 6 bytes, 2 match(es)" in out
        assert "num: 2 match(es) at [3, 4]" in out

    def test_64_streams_isolated(self, tmp_path, capsys):
        """Acceptance: the CLI serves >= 64 interleaved tagged streams
        over one compiled ruleset."""
        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        lines = []
        # two interleaved rounds: every stream's "abc" spans its chunks
        for i in range(64):
            lines.append(f"s{i:02d}\tz" + "a" * (i % 2))
        for i in range(64):
            lines.append(f"s{i:02d}\t" + ("bc" if i % 2 else "abc"))
        data = tmp_path / "streams.txt"
        data.write_text("\n".join(lines) + "\n")
        assert (
            main(
                ["scan", "--rules", str(rules), "--input", str(data), "--streams"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "served 64 stream(s)" in out
        assert out.count("hit: 1 match(es)") == 64

    def test_payload_carriage_returns_are_data(self, tmp_path, capsys):
        """Only the line framing (one \\n, at most one preceding \\r)
        is stripped; interior/trailing \\r payload bytes are stream
        data (latin-1 is the declared chunk alphabet)."""
        rules = tmp_path / "rules.txt"
        rules.write_text("crlf\tabc\\r\n")
        data = tmp_path / "streams.txt"
        data.write_bytes(b"s\tabc\r\r\n")  # payload b"abc\r" + CRLF framing
        assert (
            main(
                ["scan", "--rules", str(rules), "--input", str(data), "--streams"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stream s: 4 bytes, 1 match(es)" in out
        assert "crlf: 1 match(es) at [4]" in out

    def test_malformed_line_reports_error(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        data = tmp_path / "streams.txt"
        data.write_text("tag-without-tab\n")
        assert (
            main(
                ["scan", "--rules", str(rules), "--input", str(data), "--streams"]
            )
            == 2
        )
        assert "expected 'tag<TAB>chunk'" in capsys.readouterr().err


class TestCompileRulesAndCache:
    def test_compile_rules_to_cache_then_warm_scan(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("r1\tabcX\nr2\tabcY\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"zzabcX abcY")
        cache = str(tmp_path / "cache")
        assert (
            main(
                ["compile", "--rules", str(rules), "--cache-dir", cache, "-O", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fresh compile, -O1" in out
        assert "STEs merged" in out
        # the scan warm-starts from the artifact compile just wrote
        assert (
            main(
                [
                    "scan",
                    "--rules",
                    str(rules),
                    "--input",
                    str(data),
                    "--cache-dir",
                    cache,
                    "-O",
                    "1",
                    "--verbose",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "cache hit (warm start)" in captured.err
        assert "r1: 1 match(es)" in captured.out
        assert "r2: 1 match(es)" in captured.out

    def test_compile_without_pattern_or_rules_errors(self, capsys):
        assert main(["compile"]) == 2
        assert "provide a pattern or --rules" in capsys.readouterr().err

    def test_compile_pattern_with_cache_dir_errors(self, tmp_path, capsys):
        # --cache-dir only applies to rulesets; silently ignoring it
        # would leave users believing an artifact was written
        assert (
            main(["compile", "abc", "--cache-dir", str(tmp_path / "c")]) == 2
        )
        assert "--cache-dir requires --rules" in capsys.readouterr().err

    def test_scan_optimized_matches_unoptimized(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("p\tab{2,4}c\nq\tabd\nr\tabe$\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"zabbbc abd abe")
        for opt in ("0", "1"):
            assert (
                main(
                    ["scan", "--rules", str(rules), "--input", str(data), "-O", opt]
                )
                == 0
            )
        first, second = capsys.readouterr().out.split("scanned", 2)[1:]
        # identical match lines at every opt level (resource line differs)
        assert first.split("\n")[1:] == second.split("\n")[1:]


class TestCensusAndReport:
    def test_census(self, capsys):
        assert main(["census", "--suite", "Protomata", "--total", "20"]) == 0
        out = capsys.readouterr().out
        assert "Protomata: total 20" in out

    def test_report_table2(self, capsys):
        assert main(["report", "--which", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_report_fig8(self, capsys):
        assert main(["report", "--which", "fig8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestRulesCommand:
    """`repro rules`: triage reporting over Snort-syntax rule files."""

    FIXTURE = "tests/rules/fixtures/local.rules"

    def test_text_report(self, capsys):
        assert main(["rules", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "rules: 16" in out
        assert "compiled" in out and "rejected" in out

    def test_rejected_listing_names_source_lines(self, capsys):
        assert main(["rules", self.FIXTURE, "--rejected"]) == 0
        out = capsys.readouterr().out
        assert "local.rules:29 [pcre-backreference]" in out
        assert "local.rules:31 [negated-content]" in out

    def test_json_report(self, capsys):
        assert main(["rules", self.FIXTURE, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 16
        assert report["counts"] == {
            "compiled": 3, "rewritten": 6, "rejected": 7,
        }
        assert sum(report["counts"].values()) == report["total"]
        rejected = [r for r in report["rules"] if r["status"] == "rejected"]
        assert all(r["reason"] and r["origin"] for r in rejected)

    def test_json_compile_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["rules", self.FIXTURE, "--json", "--cache-dir", cache]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["compile"]["cache_hit"] is False
        assert cold["compile"]["rules_compiled"] == 9
        assert main(["rules", self.FIXTURE, "--json", "--cache-dir", cache]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["compile"]["cache_hit"] is True
        assert warm["compile"]["rules_compiled"] == 9

    def test_missing_file_errors(self, capsys):
        assert main(["rules", "/nonexistent/x.rules"]) == 2
        assert "x.rules" in capsys.readouterr().err

    def test_scan_snort_format(self, tmp_path, capsys):
        data = tmp_path / "payload.bin"
        data.write_bytes(b"xxGET /admin HTTP/1.1\r\nuser-agent: probe")
        assert (
            main(
                ["scan", "--format", "snort", "--rules", self.FIXTURE,
                 "--input", str(data)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "sid:1000001" in captured.out  # GET /admin literal
        assert "sid:1000003" in captured.out  # nocase'd user-agent
        assert "rejected" in captured.err  # triage note on stderr

    def test_scan_snort_format_respects_triage(self, tmp_path, capsys):
        # a rejected rule (negated content) must not reach the engine
        rules = tmp_path / "only_rejects.rules"
        rules.write_text(
            'alert tcp any any -> any any (content:!"x"; sid:1;)\n'
        )
        data = tmp_path / "d.bin"
        data.write_bytes(b"anything")
        assert (
            main(
                ["scan", "--format", "snort", "--rules", str(rules),
                 "--input", str(data)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "sid:1" not in captured.out


class TestServeConnect:
    """CLI serving: `repro connect` against a live MatchServer (what
    every `repro serve` worker runs), and `repro serve` itself as a
    subprocess: ready line, SIGHUP reload, SIGTERM drain."""

    @staticmethod
    def _live_server(matcher):
        """Start a MatchServer on its own loop thread; returns
        (port, stop_callable)."""
        import asyncio
        import threading

        ready = threading.Event()
        box = {}

        def run():
            async def main_():
                server = await __import__(
                    "repro.serve", fromlist=["MatchServer"]
                ).MatchServer(matcher, port=0).start()
                stop = asyncio.Event()
                box["port"] = server.port
                box["stop"] = (asyncio.get_running_loop(), stop)
                ready.set()
                await stop.wait()
                await server.stop()

            asyncio.run(main_())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=30)

        def stop():
            loop, event = box["stop"]
            loop.call_soon_threadsafe(event.set)
            thread.join(timeout=30)

        return box["port"], stop

    def test_connect_streams_tagged_file(self, tmp_path, capsys):
        from repro.matching import RulesetMatcher

        port, stop = self._live_server(RulesetMatcher([("hit", "abc")]))
        tagged = tmp_path / "tagged.txt"
        tagged.write_bytes(b"a\tza\nb\txxab\na\tbc\nb\tcxx\n")
        try:
            code = main([
                "connect", "--port", str(port),
                "--input", str(tagged), "--stats",
            ])
        finally:
            stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2 stream(s), 11 bytes, 2 match(es)" in out
        assert "hit: 1 match(es) at [4]" in out  # stream a: za|bc
        assert "hit: 1 match(es) at [5]" in out  # stream b: xxab|cxx
        assert "server stats" in out

    def test_connect_json_document(self, tmp_path, capsys):
        """`connect --json` emits the machine-readable schema of
        docs/SERVING.md: per-stream summaries with generation-stamped
        events, totals, and the server STATS snapshot."""

        from repro.matching import RulesetMatcher

        port, stop = self._live_server(RulesetMatcher([("hit", "abc")]))
        tagged = tmp_path / "tagged.txt"
        tagged.write_bytes(b"a\tza\nb\txxab\na\tbc\nb\tcxx\n")
        try:
            code = main([
                "connect", "--port", str(port),
                "--input", str(tagged), "--json",
            ])
        finally:
            stop()
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["totals"] == {"streams": 2, "bytes": 11, "matches": 2}
        assert set(document["streams"]) == {"a", "b"}
        for stream in document["streams"].values():
            assert stream["generation"] == 0
            assert stream["matches"] == len(stream["events"]) == 1
            (event,) = stream["events"]
            assert event["rule"] == "hit" and event["generation"] == 0
        assert document["streams"]["a"]["events"][0]["end"] == 4
        assert document["stats"]["generation"] == 0
        assert document["stats"]["workers"] == 1

    def test_connect_refused_reports_cleanly(self, tmp_path, capsys):
        tagged = tmp_path / "tagged.txt"
        tagged.write_bytes(b"a\tza\n")
        code = main([
            "connect", "--port", "1", "--input", str(tagged),
            "--retries", "0",
        ])
        assert code == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_missing_input_file_is_one_error_line(self, tmp_path, capsys):
        """scan / connect / cluster --attach: exit 2 and one `error:`
        line naming the file, never a FileNotFoundError traceback."""
        from repro.matching import RulesetMatcher

        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        missing = str(tmp_path / "no-such-input.txt")
        port, stop = self._live_server(RulesetMatcher([("hit", "abc")]))
        try:
            for command in (
                ["scan", "--rules", str(rules)],
                ["scan", "--rules", str(rules), "--streams"],
                ["connect", "--port", str(port)],
                ["cluster", "--attach", f"127.0.0.1:{port}"],
            ):
                assert main([*command, "--input", missing]) == 2, command
                captured = capsys.readouterr()
                assert captured.out == "", command
                lines = captured.err.splitlines()
                assert len(lines) == 1, (command, lines)
                assert lines[0].startswith("error: cannot read --input:")
                assert "no-such-input.txt" in lines[0]
        finally:
            stop()

    def test_serve_bind_failure_is_one_clean_line(self, tmp_path, capsys):
        """A taken port yields one `error:` line and exit 2 -- no
        traceback -- with and without `--workers`."""
        import socket

        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            for workers in ([], ["--workers", "2"]):
                code = main([
                    "serve", "--rules", str(rules), "--port", str(port),
                    *workers,
                ])
                assert code == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                (line,) = captured.err.splitlines()
                assert line.startswith(
                    f"error: cannot serve on 127.0.0.1:{port}: "
                )
        finally:
            blocker.close()

    def test_parser_accepts_serve_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--rules", "r.txt", "--port", "7341",
            "--engine", "stream", "--queue-depth", "4",
            "-O", "1", "--threads", "2", "--workers", "4", "--reload",
            "--control", "/tmp/repro.sock",
        ])
        assert args.command == "serve"
        assert (args.port, args.queue_depth) == (7341, 4)
        assert (args.threads, args.workers) == (2, 4)
        assert args.reload is True
        assert args.control == "/tmp/repro.sock"
        # defaults: a one-worker fleet, no reload, no control socket
        args = build_parser().parse_args(["serve", "--rules", "r.txt"])
        assert (args.workers, args.reload, args.control) == (1, False, None)

    def test_serve_fleet_cli_sighup_reload_roundtrip(self, tmp_path):
        """End-to-end over the real CLI, as the default one-worker
        fleet and as a 2-worker one: ready line (compiled-rule count,
        skipped-rule warning), SIGHUP hot reload after editing the
        rule file, SIGTERM drain summary."""
        import signal
        import sys as _sys
        import time

        rules = tmp_path / "rules.txt"
        tagged = tmp_path / "tagged.txt"
        tagged.write_bytes(b"s\tza\ns\tbc old7 new!\n")
        env = _cli_env()

        def roundtrip(workers, worker_args):
            # three lines, two compile: the ready line counts the latter
            rules.write_text("hit\tabc\ngone\told[0-9]\nbad\t(a)\\1\n")
            proc = subprocess.Popen(
                [_sys.executable, "-m", "repro", "serve",
                 "--rules", str(rules), "--port", "0",
                 *worker_args, "--reload"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
            try:
                assert "skipped 1 rule(s)" in proc.stdout.readline()
                ready = proc.stdout.readline()
                assert "serving 2 rules on" in ready, ready
                assert f"workers {workers}, {workers} warm-started" in ready
                assert "engine auto" in ready and "generation 0" in ready
                port = ready.split(" on ")[1].split(" ")[0].split(":")[1]

                def connect_json():
                    return _connect_json(port, tagged, env)

                before = connect_json()
                assert before["streams"]["s"]["generation"] == 0
                assert {
                    e["rule"] for e in before["streams"]["s"]["events"]
                } == {"hit", "gone"}

                # one rule removed, one added: the SIGHUP re-reads the file
                rules.write_text("hit\tabc\nfresh\tnew!\n")
                proc.send_signal(signal.SIGHUP)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    line = proc.stdout.readline()
                    if not line and proc.poll() is not None:
                        raise AssertionError("serve process died during reload")
                    if "reloaded ruleset: generation 1" in line:
                        break
                else:  # pragma: no cover - diagnostic only
                    raise AssertionError("no reload acknowledgement")

                after = connect_json()
                assert after["streams"]["s"]["generation"] == 1
                assert {
                    e["rule"] for e in after["streams"]["s"]["events"]
                } == {"hit", "fresh"}
                assert all(
                    e["generation"] == 1
                    for e in after["streams"]["s"]["events"]
                )

                proc.send_signal(signal.SIGTERM)
                remaining = proc.communicate(timeout=60)[0]
                assert proc.returncode == 0
                assert (
                    "served 2 connection(s), 2 stream(s), 28 bytes, "
                    "4 match(es)" in remaining
                )
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=30)

        roundtrip(1, [])
        roundtrip(2, ["--workers", "2"])

    def test_serve_control_reload_rereads_rules(self, tmp_path):
        """``RELOAD`` on ``--control`` is SIGHUP's reload: it re-reads the
        edited ``--rules`` file; a file that compiles nothing is refused
        over the socket and the fleet keeps the generation it had."""
        import time

        from repro.serve import ControlClient

        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\ngone\told[0-9]\n")
        tagged = tmp_path / "tagged.txt"
        tagged.write_bytes(b"s\tza\ns\tbc old7 new!\n")
        sock = str(tmp_path / "ctl.sock")
        env = _cli_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--rules", str(rules),
             "--port", "0", "--control", sock],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert "serving 2 rules on" in ready, ready
            port = ready.split(" on ")[1].split(" ")[0].split(":")[1]
            deadline = time.monotonic() + 30
            while not os.path.exists(sock) and time.monotonic() < deadline:
                time.sleep(0.05)
            before = _connect_json(port, tagged, env)
            assert {e["rule"] for e in before["streams"]["s"]["events"]} == {
                "hit", "gone"
            }

            rules.write_text("hit\tabc\nfresh\tnew!\n")
            with ControlClient(sock) as ctl:
                assert ctl.reload() == 1
                after = _connect_json(port, tagged, env)
                assert after["streams"]["s"]["generation"] == 1
                assert {e["rule"] for e in after["streams"]["s"]["events"]} == {
                    "hit", "fresh"
                }

                rules.write_text("bad\t(a)\\1\n")
                assert ctl.command("RELOAD").startswith("ERR ")
                assert ctl.generation() == 1
                ctl.stop()
            remaining = proc.communicate(timeout=60)[0]
            assert proc.returncode == 0
            assert "reloaded ruleset: generation 1" in remaining
            assert "reload failed:" in remaining
        finally:
            if proc.poll() is None:
                # SIGTERM drains the fleet; a SIGKILLed supervisor would
                # leave its forked worker running
                proc.terminate()
                try:
                    proc.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate(timeout=30)
