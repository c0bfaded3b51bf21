#!/usr/bin/env python3
"""Client and soak/throughput driver for apird (docs/apird.md).

Modes:

  One-shot client against a running daemon:
      apird_client.py --port 4200 --ping
      apird_client.py --port 4200 --request '{"app":"SPEC-BFS","scale":0.05}'
      apird_client.py --port 4200 --stats
      apird_client.py --port 4200 --shutdown

  Soak (spawns its own daemon; the CI server-soak leg runs this):
      apird_client.py --soak --apird build/src/server/apird \\
          --fig9 build/bench/fig9_speedup --clients 32
    Fires >= `--clients` concurrent mixed-priority requests, asserts
    the result cache counted each of them once, asserts
    every simulation response is byte-identical to a fresh-process
    `apird --once` evaluation of the same request, cross-checks the
    shared run fields against the fig9 bench's --stats-json output,
    asserts the workload/result caches took hits, drives the
    backpressure path on a deliberately tiny server, and finishes
    with a SIGTERM drain (exit 0 + final_stats line + connection
    refused afterwards).

  Throughput smoke check (not a measurement; for req/s numbers run
  `python3 perfbench/run.py --workload apird-mix`):
      apird_client.py --throughput --apird build/src/server/apird \\
          --clients 16 --requests 200

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

APPS = ["SPEC-BFS", "COOR-BFS", "SPEC-SSSP", "SPEC-MST", "SPEC-DMR",
        "COOR-LU"]
PRIORITIES = ["high", "normal", "low"]


class Client:
    """One connection speaking newline-delimited JSON."""

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port))
        self.rfile = self.sock.makefile("r", encoding="utf-8")

    def rpc_raw(self, line):
        """Send one request line, return the raw response line."""
        self.sock.sendall((line + "\n").encode("utf-8"))
        resp = self.rfile.readline()
        if not resp:
            raise ConnectionError("server closed the connection")
        return resp.rstrip("\n")

    def rpc(self, obj):
        return json.loads(self.rpc_raw(json.dumps(obj)))

    def sim(self, line, retry=True):
        """Send a sim request, honouring busy/retry_after_ms."""
        while True:
            resp = self.rpc_raw(line)
            parsed = json.loads(resp)
            if parsed.get("status") == "busy" and retry:
                time.sleep(parsed.get("retry_after_ms", 50) / 1000.0)
                continue
            return resp

    def close(self):
        self.sock.close()


class Daemon:
    """A spawned apird with startup handshake and drain helpers."""

    def __init__(self, apird, args=(), scenario_dir=None):
        cmd = [apird, "--port", "0"]
        if scenario_dir:
            cmd += ["--scenario-dir", scenario_dir]
        cmd += list(args)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        hello = json.loads(line)
        assert hello.get("event") == "listening", line
        self.port = hello["port"]

    def drain(self, timeout=120):
        """SIGTERM; return (exit_code, final_stats dict)."""
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=timeout)
        final = None
        for line in out.splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if doc.get("event") == "final_stats":
                final = doc["stats"]
        return self.proc.returncode, final, err

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def check(cond, what):
    if cond:
        print(f"  ok: {what}")
    else:
        print(f"  FAIL: {what}")
        raise SystemExit(f"soak assertion failed: {what}")


def build_request_mix(n, scale):
    """n mixed-priority requests over a deliberately small key space,
    so the caches see both misses and hits."""
    reqs = []
    for i in range(n):
        req = {
            "app": APPS[i % len(APPS)],
            "scale": scale if i % 4 != 3 else scale * 2,
            "seed": 42 if i % 3 != 2 else 7,
            "priority": PRIORITIES[i % len(PRIORITIES)],
        }
        if i % 8 == 5:
            req["config"] = "apird_soak"
        reqs.append(json.dumps(req))
    return reqs


def fire_concurrently(port, lines):
    """One thread and one connection per request; returns responses
    in the same order as `lines`."""
    responses = [None] * len(lines)

    def worker(i):
        c = Client(port)
        try:
            responses[i] = c.sim(lines[i])
        finally:
            c.close()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(lines))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses


def soak(args):
    print(f"[soak] daemon: {args.apird} (threads={args.threads})")
    daemon = Daemon(args.apird,
                    ["--threads", str(args.threads)],
                    scenario_dir=args.scenario_dir)
    try:
        probe = Client(daemon.port)
        assert probe.rpc({"op": "ping"})["event"] == "pong"

        # Phase 1: concurrent mixed-priority burst.
        lines = build_request_mix(args.clients, args.scale)
        t0 = time.monotonic()
        responses = fire_concurrently(daemon.port, lines)
        dt = time.monotonic() - t0
        n_ok = sum(1 for r in responses
                   if json.loads(r).get("status") == "ok")
        print(f"[soak] {len(lines)} concurrent requests in {dt:.2f}s")
        check(n_ok == len(lines),
              f"all {len(lines)} concurrent responses ok")
        # Hits and in-flight repeats are answered on connection
        # threads and misses by workers: still one result-store lookup
        # per request, never two.
        burst = probe.rpc({"op": "stats"})["stats"]
        rc = burst["result_cache"]
        check(rc["hits"] + rc["misses"] == burst["sims_ok"],
              f"each request counted once by the result cache "
              f"({rc['hits']} hits + {rc['misses']} misses, "
              f"{burst['sims_ok']} ok)")

        # Phase 2: byte-identity against fresh single-process runs of
        # every distinct request in the mix.
        distinct = {}
        for line, resp in zip(lines, responses):
            # priority is scheduling, not identity: strip it so the
            # --once reference sees the same simulation.
            req = json.loads(line)
            req.pop("priority", None)
            distinct.setdefault(json.dumps(req), resp)
        for req_line, served in sorted(distinct.items()):
            once = subprocess.run(
                [args.apird, "--once", "--request", req_line]
                + (["--scenario-dir", args.scenario_dir]
                   if args.scenario_dir else []),
                capture_output=True, text=True, check=True)
            fresh = once.stdout.strip()
            if fresh != served:
                print(f"  request: {req_line}")
                print(f"  served:  {served[:200]}")
                print(f"  fresh:   {fresh[:200]}")
            check(fresh == served,
                  f"byte-identical to --once: {req_line}")
        print(f"[soak] {len(distinct)} distinct requests byte-checked")

        # Phase 3: cross-check the shared run fields against the
        # batch bench path (fig9 appends xeon fields, so compare the
        # runToJson subset field-for-field, not bytes).
        if args.fig9:
            with tempfile.NamedTemporaryFile(suffix=".json",
                                             delete=False) as tf:
                stats_path = tf.name
            try:
                subprocess.run(
                    [args.fig9, "--scale", str(args.scale),
                     "--stats-json", stats_path],
                    capture_output=True, text=True, check=True)
                with open(stats_path, encoding="utf-8") as f:
                    fig9 = json.load(f)
            finally:
                os.unlink(stats_path)
            by_bench = {r["benchmark"]: r for r in fig9["runs"]}
            checked = 0
            for req_line, served in distinct.items():
                req = json.loads(req_line)
                if (req.get("scale") != args.scale
                        or req.get("seed", 42) != 42
                        or "config" in req):
                    continue
                run = json.loads(served)["run"]
                ref = by_bench[req["app"]]
                for field in ("cycles", "seconds", "utilization",
                              "tasks_executed", "tasks_activated",
                              "squashed", "stats"):
                    check(run[field] == ref[field],
                          f"{req['app']}.{field} matches fig9")
                checked += 1
            check(checked > 0, "cross-checked >= 1 app against fig9")

        # Phase 4: cache + self-metric assertions.
        stats = probe.rpc({"op": "stats"})["stats"]
        print(f"[soak] stats: {json.dumps(stats)}")
        check(stats["workload_cache"]["hits"] > 0,
              "workload cache took hits")
        check(stats["result_cache"]["hits"] > 0,
              "result cache took hits")
        check(stats["sims_ok"] >= len(lines),
              "sims_ok covers the burst")
        check(stats["service_ms"]["p50_ms"] > 0, "p50 recorded")
        check(stats["service_ms"]["p99_ms"]
              >= stats["service_ms"]["p50_ms"], "p99 >= p50")
        probe.close()
    except BaseException:
        daemon.kill()
        raise

    # Phase 5: graceful drain under SIGTERM.
    code, final, err = daemon.drain()
    check(code == 0, f"drain exit code 0 (got {code}, stderr={err!r})")
    check(final is not None, "final_stats line printed on drain")
    check(final["sims_ok"] == stats["sims_ok"],
          "final stats carry the full request history")
    try:
        Client(daemon.port)
        check(False, "post-drain connect refused")
    except OSError:
        check(True, "post-drain connect refused")

    # Phase 6: backpressure on a deliberately tiny server.
    print("[soak] backpressure: --threads 1 --queue-depth 1")
    tiny = Daemon(args.apird,
                  ["--threads", "1", "--queue-depth", "1",
                   "--retry-after-ms", "20"],
                  scenario_dir=args.scenario_dir)
    try:
        busy_seen = [0]
        lock = threading.Lock()

        def hammer(i):
            c = Client(tiny.port)
            # Distinct seeds defeat the result cache so every request
            # really occupies the lone worker.
            line = json.dumps({"app": "SPEC-BFS",
                               "scale": args.scale,
                               "seed": 100 + i})
            while True:
                parsed = json.loads(c.rpc_raw(line))
                if parsed.get("status") == "busy":
                    with lock:
                        busy_seen[0] += 1
                    time.sleep(parsed["retry_after_ms"] / 1000.0)
                    continue
                assert parsed.get("status") == "ok", parsed
                break
            c.close()

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        probe = Client(tiny.port)
        tiny_stats = probe.rpc({"op": "stats"})["stats"]
        probe.close()
        check(busy_seen[0] >= 1 and tiny_stats["busy_rejects"] >= 1,
              f"backpressure engaged ({busy_seen[0]} busy responses)")
        check(tiny_stats["sims_ok"] == 8,
              "every backpressured client eventually served")
    except BaseException:
        tiny.kill()
        raise
    code, final, err = tiny.drain()
    check(code == 0, "tiny server drains cleanly")

    print("[soak] PASS")


def throughput(args):
    """Smoke check: a burst of requests from several client threads is
    all served; prints requests/sec and the cache hit rate.

    Not a throughput measurement: a run this short is bounded by its
    few cold misses (6 apps on 2 workers), so its req/s swings widely
    between runs of one build. For throughput numbers run
    `python3 perfbench/run.py --workload apird-mix`."""
    daemon = Daemon(args.apird,
                    ["--threads", str(args.threads)],
                    scenario_dir=args.scenario_dir)
    try:
        # Warm nothing: the hit rate below includes the cold misses.
        lines = [json.dumps({"app": APPS[i % len(APPS)],
                             "scale": args.scale,
                             "priority": PRIORITIES[i % 3]})
                 for i in range(args.requests)]
        per = max(1, args.requests // args.clients)
        chunks = [lines[i * per:(i + 1) * per]
                  for i in range(args.clients)]
        chunks[-1].extend(lines[args.clients * per:])

        def worker(chunk):
            c = Client(daemon.port)
            for line in chunk:
                c.sim(line)
            c.close()

        t0 = time.monotonic()
        threads = [threading.Thread(target=worker, args=(ch,))
                   for ch in chunks if ch]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        dt = time.monotonic() - t0

        probe = Client(daemon.port)
        stats = probe.rpc({"op": "stats"})["stats"]
        probe.close()
        rc = stats["result_cache"]
        served = stats["sims_ok"] + stats["sims_error"]
        hit_rate = rc["hits"] / max(1, rc["hits"] + rc["misses"])
        print(f"clients={args.clients} requests={served} "
              f"wall={dt:.2f}s rps={served / dt:.1f} "
              f"result_cache_hit_rate={hit_rate:.3f} "
              f"p50_ms={stats['service_ms']['p50_ms']} "
              f"p99_ms={stats['service_ms']['p99_ms']}")
    finally:
        daemon.kill()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--port", type=int, help="daemon port (client mode)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--request", help="raw request JSON to send")
    ap.add_argument("--ping", action="store_true")
    ap.add_argument("--stats", action="store_true")
    ap.add_argument("--shutdown", action="store_true")
    ap.add_argument("--soak", action="store_true",
                    help="spawn a daemon and run the full soak")
    ap.add_argument("--throughput", action="store_true",
                    help="spawn a daemon and measure requests/sec")
    ap.add_argument("--apird", default="build/src/server/apird",
                    help="apird binary (soak/throughput modes)")
    ap.add_argument("--fig9", default="",
                    help="fig9_speedup binary for the bench cross-check")
    ap.add_argument("--scenario-dir", default="scenarios")
    ap.add_argument("--clients", type=int, default=32,
                    help="concurrent requests (soak) / threads (throughput)")
    ap.add_argument("--requests", type=int, default=200,
                    help="total requests in throughput mode")
    ap.add_argument("--threads", type=int, default=2,
                    help="daemon worker threads (soak/throughput)")
    ap.add_argument("--scale", type=float, default=0.05)
    args = ap.parse_args()

    if args.soak:
        soak(args)
        return
    if args.throughput:
        throughput(args)
        return

    if args.port is None:
        ap.error("--port is required outside --soak/--throughput")
    c = Client(args.port, args.host)
    if args.ping:
        print(c.rpc_raw(json.dumps({"op": "ping"})))
    elif args.stats:
        print(c.rpc_raw(json.dumps({"op": "stats"})))
    elif args.shutdown:
        print(c.rpc_raw(json.dumps({"op": "shutdown"})))
    elif args.request:
        print(c.sim(args.request))
    else:
        ap.error("nothing to send (use --request/--ping/--stats/"
                 "--shutdown)")
    c.close()


if __name__ == "__main__":
    main()
