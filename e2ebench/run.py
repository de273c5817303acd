"""End-to-end benchmark of ``repro serve`` over warm keep-alive HTTP.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload hot_read --seed 1 --seconds 34 --trace 0

Starts the server from ``src/`` as a subprocess, drives it from two
keep-alive ``http.client`` connections in a closed loop, checks every
answer against an in-process oracle, prints a report, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload under the traced launcher and again
untraced, and reports the per-layer metrics.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: cold starts per --trace 0 run; setup_s is their median
COLD_STARTS = 3
#: untimed closed-loop seconds before the timed phase
WARMUP_SECONDS = 0.5
#: mutate + poll rounds after the timed phase of a read-only workload
WRITE_PROBE_FLIPS = 16
#: whole-run watchdog: a run must end within 180 s
WATCHDOG_SECONDS = 170.0
POLL_TIMEOUT_MS = 5000
#: validity guards
HOT_MIN_HIT_RATIO = 0.95
COLD_MAX_HIT_RATIO = 0.5
MAX_CLIENT_CPU_SHARE = 0.5

REQUEST_ID_HEADER = "X-Repro-Request-Id"
JSON_HEADERS = {"Content-Type": "application/json"}


class RunFailed(Exception):
    """The run cannot produce trustworthy numbers."""


# ---------------------------------------------------------------------- #
# The server under test
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` process group (the router and its workers)."""

    def __init__(self, plan: Any, out_dir: Path, tag: str, *, spans: "str | None" = None,
                 launcher: bool = False) -> None:
        self.ready_file = out_dir / f"ready-{tag}.txt"
        self.stderr_path = out_dir / f"stderr-{tag}.log"
        from workloads import SCALE

        repro_args = [
            "--seed", str(plan.seed), "--scale", str(SCALE),
            "serve", "--port", "0", "--ready-file", str(self.ready_file),
            "--cache-size", str(plan.cache_size), "--shards", str(plan.shards),
        ]
        if launcher:
            head = [sys.executable, str(HERE / "launcher.py")]
            if spans:
                head += ["--spans", spans]
            self.argv = head + ["--"] + repro_args
        else:
            self.argv = [sys.executable, "-m", "repro"] + repro_args
        tmp = out_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        self.proc: "subprocess.Popen | None" = None
        self.port = 0

    def start(self) -> float:
        """Spawn; returns the spawn instant (``perf_counter``)."""
        self.ready_file.unlink(missing_ok=True)
        started = perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True,
            )
        return started

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RunFailed(f"server exited with {self.proc.returncode}: {self.stderr_tail()}")
            try:
                url = self.ready_file.read_text(encoding="utf-8").strip()
            except FileNotFoundError:
                url = ""
            if url:
                self.port = int(url.rsplit(":", 1)[1])
                return self.port
            time.sleep(0.002)
        raise RunFailed("server did not become ready")

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def group(self) -> list[int]:
        """Every live process of the server's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == self.proc.pid:  # field 5: process group
                pids.append(int(entry))
        return pids

    def cpu_seconds(self) -> float:
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.group():
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime + stime
        return total / ticks

    def rss_mb(self) -> float:
        total_kb = 0
        for pid in self.group():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as f:
                    for line in f:
                        if line.startswith("VmRSS:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, *, graceful: bool = True) -> None:
        """SIGTERM (a clean ``repro serve`` shutdown), then SIGKILL whatever
        is left of the group, and wait until it is empty."""
        if self.proc is None:
            return
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while self.group() and time.monotonic() < deadline:
            time.sleep(0.02)


# ---------------------------------------------------------------------- #
# The client side
# ---------------------------------------------------------------------- #
class Sample(NamedTuple):
    """One request as the client saw it (``perf_counter`` instants)."""

    status: int  # 0: the connection failed
    body: bytes
    sent: float
    headers: float  # ``getresponse()`` returned: status line and headers read
    done: float  # last body byte read

    @property
    def ms(self) -> float:
        return (self.done - self.sent) * 1000


class Read(NamedTuple):
    stream: str  # which connection
    rid: str  # the X-Repro-Request-Id it was sent with
    index: int  # which distinct read of the plan
    sample: Sample


class Conn:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: "bytes | None", rid: str) -> Sample:
        """One timed request; a transport failure comes back as status 0
        and the connection is replaced."""
        headers = dict(JSON_HEADERS) if body is not None else {}
        headers[REQUEST_ID_HEADER] = rid
        sent = perf_counter()
        try:
            self.http.request(method, path, body=body, headers=headers)
            response = self.http.getresponse()
            got_headers = perf_counter()
            data = response.read()
            return Sample(response.status, data, sent, got_headers, perf_counter())
        except (OSError, http.client.HTTPException) as exc:
            now = perf_counter()
            self.http.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return Sample(0, repr(exc).encode(), sent, now, now)

    def post(self, path: str, payload: Any, rid: str) -> Sample:
        return self.call("POST", path, json.dumps(payload).encode(), rid)

    def close(self) -> None:
        self.http.close()


def _json(data: bytes) -> Any:
    try:
        return json.loads(data)
    except ValueError:
        return None


def cache_counters(port: int) -> dict[str, int]:
    from workloads import DATASET

    conn = Conn(port)
    try:
        sample = conn.call("GET", f"/v1/stats?dataset={DATASET}", None, "s-stats")
    finally:
        conn.close()
    body = _json(sample.body)
    if sample.status != 200 or not isinstance(body, dict) or "cache" not in body:
        raise RunFailed(f"/v1/stats failed: {sample.status} {sample.body[:200]!r}")
    return body["cache"]


class Workload:
    """Drives one server through one plan and keeps every sample."""

    def __init__(self, plan: Any, bodies: list[bytes]) -> None:
        self.plan = plan
        self.bodies = bodies
        self.reads: list[Read] = []  # the timed phase's reads
        #: (flip token into the title?, mutate sample, poll sample)
        self.flips: list[tuple[bool, Sample, Sample]] = []
        self.watch_id = ""
        self.base_version = 0
        self.first_answer: "Sample | None" = None

    def first_answer_time(self, server: Server) -> float:
        """Spawn to first answer (the answer is checked later)."""
        started = server.start()
        conn = Conn(server.wait_ready())
        try:
            self.first_answer = conn.call("POST", "/v1/query", self.bodies[0], "s-first")
        finally:
            conn.close()
        return self.first_answer.done - started

    def register_watches(self, conn: Conn) -> None:
        from workloads import DATASET, WATCH_K

        for n, keywords in enumerate(self.plan.watches):
            sample = conn.post(
                "/v1/watch", {"dataset": DATASET, "keywords": keywords, "k": WATCH_K},
                f"s-watch-{n}",
            )
            if sample.status != 200:
                raise RunFailed(f"/v1/watch failed: {sample.status} {sample.body[:200]!r}")
            if n == 0:
                body = _json(sample.body)
                self.watch_id = body["watch_id"]
                self.base_version = body["dataset_version"]

    def read_loop(self, port: int, stream: str, until: float, record: bool) -> None:
        rng = self.plan.sequence(stream)
        conn = Conn(port)
        n = 0
        try:
            while perf_counter() < until:
                index = self.plan.draw(rng)
                rid = f"r{stream}-{n}" if record else f"s-{stream}-{n}"
                sample = conn.call("POST", "/v1/query", self.bodies[index], rid)
                if record:
                    self.reads.append(Read(stream, rid, index, sample))
                n += 1
        finally:
            conn.close()

    def write_loop(self, conn: Conn, until: float, max_flips: int) -> None:
        """Flip the token in or out, then poll the flip watch, repeatedly."""
        from workloads import DATASET

        into = not (self.flips[-1][0] if self.flips else False)
        while perf_counter() < until and len(self.flips) < max_flips:
            n = len(self.flips)
            mutate = conn.post("/v1/mutate", self.plan.flip(into), f"w-{n}")
            version = (_json(mutate.body) or {}).get("dataset_version", self.base_version)
            poll = conn.post(
                "/v1/watch/poll",
                {"dataset": DATASET, "watch_id": self.watch_id,
                 "after_version": version - 1, "timeout_ms": POLL_TIMEOUT_MS},
                f"p-{n}",
            )
            self.flips.append((into, mutate, poll))
            into = not into

    def _threads(self, targets: list[tuple]) -> None:
        threads = [threading.Thread(target=fn, args=args, daemon=True) for fn, args in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def timed(self, server: Server, seconds: float) -> dict[str, float]:
        """Warm up, then run the closed loop for *seconds*; returns what
        the timed phase cost the server and the load generator."""
        port = server.port
        if self.plan.mix == "hot":
            conn = Conn(port)
            try:
                for index, body in enumerate(self.bodies):
                    conn.call("POST", "/v1/query", body, f"s-warm-{index}")
            finally:
                conn.close()
        writer = Conn(port) if self.plan.live else None
        if writer is not None:
            self.register_watches(writer)
        streams = ["a"] if self.plan.live else ["a", "b"]
        warm_until = perf_counter() + WARMUP_SECONDS
        self._threads([(self.read_loop, (port, s, warm_until, False)) for s in streams])
        # the load generator's own collector must not pause both client
        # threads at once and show up as server tail latency
        gc.collect()
        gc.disable()
        try:
            before = cache_counters(port)
            cpu_before = server.cpu_seconds()
            client_before = time.process_time()
            start = perf_counter()
            until = start + seconds
            targets = [(self.read_loop, (port, s, until, True)) for s in streams]
            if writer is not None:
                targets.append((self.write_loop, (writer, until, 10**9)))
            self._threads(targets)
            wall = perf_counter() - start
            client_cpu = time.process_time() - client_before
            cpu = server.cpu_seconds() - cpu_before
            after = cache_counters(port)
        finally:
            gc.enable()
            if writer is not None:
                writer.close()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        return {
            "wall_s": wall,
            "server_cpu_s": cpu,
            "client_cpu_share": client_cpu / wall,
            "hit_ratio": hits / max(1, hits + misses),
            "single_flight_waits": after["single_flight_waits"] - before["single_flight_waits"],
        }

    def run_server(self, server: Server, seconds: float, *, probe: bool) -> dict[str, float]:
        """The timed phase, then (read-only workloads, when *probe*) a
        lone-writer flip probe, then the server tree's RSS."""
        stats = self.timed(server, seconds)
        if probe and not self.plan.live:
            conn = Conn(server.port)
            try:
                self.register_watches(conn)
                self.write_loop(conn, float("inf"), WRITE_PROBE_FLIPS)
            finally:
                conn.close()
        stats["rss_mb"] = server.rss_mb()
        return stats


# ---------------------------------------------------------------------- #
# Checking answers
# ---------------------------------------------------------------------- #
def _parse_reads(work: Workload, errors: list[str]) -> list[tuple]:
    """``(rid, read index, flip state, body)`` per well-formed timed read;
    status and version-order failures go to *errors*."""
    parsed = []
    last_version: dict[str, int] = {}
    for read in work.reads:
        body = _json(read.sample.body)
        version = body.get("dataset_version") if isinstance(body, dict) else None
        if read.sample.status != 200 or version is None:
            errors.append(f"{read.rid}: status {read.sample.status} {read.sample.body[:120]!r}")
            continue
        if version < last_version.get(read.stream, version):
            errors.append(f"{read.rid}: dataset_version went back to {version}")
        last_version[read.stream] = version
        if work.plan.live:
            state = (version - work.base_version) % 2 == 1
        else:
            state = False
            if version != work.base_version:
                errors.append(f"{read.rid}: unexpected dataset_version {version}")
        parsed.append((read.rid, read.index, state, body))
    return parsed


def _check_flips(work: Workload, errors: list[str]) -> None:
    """Every mutate acknowledged once, every flip notified exactly once."""
    version = work.base_version
    for n, (into, mutate, poll) in enumerate(work.flips):
        body = _json(mutate.body) or {}
        if mutate.status != 200 or body.get("applied") != 1:
            errors.append(f"w-{n}: mutate not acknowledged: {mutate.body[:120]!r}")
            continue
        if body.get("dataset_version") != version + 1:
            errors.append(f"w-{n}: version {body.get('dataset_version')} after {version}")
        version = body.get("dataset_version", version)
        if body.get("watch_notifications") != 1:
            errors.append(f"w-{n}: {body.get('watch_notifications')} notifications queued")
        notes = (_json(poll.body) or {}).get("notifications")
        expected_top = [["paper", work.plan.flip_row]] if into else []
        if (
            poll.status != 200
            or not isinstance(notes, list)
            or len(notes) != 1
            or notes[0].get("dataset_version") != version
            or [[e["table"], e["row_id"]] for e in notes[0].get("top_k", [])] != expected_top
        ):
            errors.append(f"p-{n}: expected one notification at version {version}")


def check(works: list[Workload], oracle: Any) -> list[str]:
    """Every read, write and notification of *works* against the oracle;
    returns one message per failed operation."""
    from workloads import comparable

    errors: list[str] = []
    parsed = [item for work in works for item in _parse_reads(work, errors)]
    # the oracle answers every "out" read before it flips the token in
    oracle.answers({index for _r, index, state, _b in parsed if not state} | {0}, False)
    flipped = {index for _r, index, state, _b in parsed if state}
    if flipped:
        oracle.answers(flipped, True)
    for rid, index, state, body in parsed:
        if (200, comparable(body)) != oracle.expected[(index, state)]:
            errors.append(f"{rid}: answer differs from the oracle")
    for work in works:
        first = work.first_answer
        if first is not None and (first.status, comparable(_json(first.body))) != (
            oracle.expected[(0, False)]
        ):
            errors.append("first answer after start differs from the oracle")
        _check_flips(work, errors)
    return errors


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def latencies(work: Workload) -> list[float]:
    return [read.sample.ms for read in work.reads]


def client_waits(work: Workload) -> dict[str, tuple]:
    """Median client-side waits: send → headers, headers → last byte."""
    return {
        "http.wait_headers_ms": (statistics.median(
            [(r.sample.headers - r.sample.sent) * 1000 for r in work.reads]), "ms"),
        "http.wait_body_ms": (statistics.median(
            [(r.sample.done - r.sample.headers) * 1000 for r in work.reads]), "ms"),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(work: Workload, stats: dict, setups: list[float]) -> dict[str, tuple]:
    lat = latencies(work)
    if not work.flips or len(lat) < 100:
        raise RunFailed(f"too few operations: {len(lat)} reads, {len(work.flips)} flips")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "p50_ms": (statistics.median(lat), "ms"),
        "p99_ms": (statistics.quantiles(lat, n=100)[98], "ms"),
        "rps": (len(lat) / stats["wall_s"], "req/s"),
        "rss_mb": (stats["rss_mb"], "MB"),
        "write_p50_ms": (statistics.median([m.ms for _i, m, _p in work.flips]), "ms"),
        "notify_p50_ms": (
            statistics.median([(p.done - m.sent) * 1000 for _i, m, p in work.flips]), "ms"),
    }


#: per-read self-time metrics and the span each one sums
LAYER_SPANS = {
    "http.handler_ms": "http.handler", "middleware.ms": "middleware",
    "dispatch.ms": "dispatch", "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode", "render.ms": "render",
    "search.ms": "search", "cache.run_ms": "cache.run",
    "generate.ms": "generate", "select.ms": "select", "router.ms": "router",
    "transport.call_ms": "transport.call",
}


def per_layer(work: Workload, stats: dict, spans_path: Path,
              untraced: Workload, untraced_stats: dict) -> dict[str, tuple]:
    from spans import load, self_times

    spans = load([spans_path] + sorted(spans_path.parent.glob(spans_path.name + ".*")))
    reads = {read.rid: read for read in work.reads}
    n_reads = max(1, len(reads))
    read_ms: dict[str, float] = defaultdict(float)  # summed self time by span
    read_calls: dict[str, int] = defaultdict(int)
    read_counts: dict[str, list[int]] = defaultdict(list)
    per_request: dict[str, float] = defaultdict(float)  # server self time
    write_ms: dict[str, list[float]] = defaultdict(list)
    write_counts: dict[str, list[int]] = defaultdict(list)
    setup: dict[tuple[str, int], float] = defaultdict(float)
    for name, rid, ms, count, proc in self_times(spans):
        if rid in reads:
            read_ms[name] += ms
            read_calls[name] += 1
            per_request[rid] += ms
            if count is not None:
                read_counts[name].append(count)
        elif rid is not None and rid.startswith("w-"):
            write_ms[name].append(ms)
            if count is not None:
                write_counts[name].append(count)
        elif rid is None and name.startswith("setup."):
            setup[(name, proc)] += ms / 1000
    unexplained = [
        read.sample.ms - per_request[rid] - (read.sample.done - read.sample.headers) * 1000
        for rid, read in reads.items()
        if rid in per_request
    ]
    uncached = [
        entry["stats"]
        for read in work.reads
        for entry in (_json(read.sample.body) or {}).get("results", ())
        if not entry["stats"].get("cached", True)
    ]
    metrics = {
        **client_waits(work),
        "server.cpu_ms_per_req": (
            untraced_stats["server_cpu_s"] * 1000 / max(1, len(untraced.reads)), "ms"),
        "client.cpu_share": (stats["client_cpu_share"], "ratio"),
        "cache.hit_ratio": (stats["hit_ratio"], "ratio"),
        "cache.single_flight_waits": (stats["single_flight_waits"], "count"),
        "search.matches_per_req": (sum(read_counts["search"]) / n_reads, "count"),
        "generate.os_nodes": (_mean(read_counts["generate"]), "count"),
        "transport.calls_per_req": (read_calls["transport.call"] / n_reads, "count"),
        "watch.reevaluated_per_commit": (_mean(write_counts["watch.on_commit"]), "count"),
        "live.apply_ms": (_mean(write_ms["live.apply"]), "ms"),
        "watch.on_commit_ms": (_mean(write_ms["watch.on_commit"]), "ms"),
        "resp.generation_ms": (_mean([s["generation_seconds"] * 1000 for s in uncached]), "ms"),
        "resp.algorithm_ms": (_mean([s["algorithm_seconds"] * 1000 for s in uncached]), "ms"),
        "resp.initial_os_size": (_mean([s["initial_os_size"] for s in uncached]), "count"),
        "attribution.unexplained_ms": (
            statistics.median(unexplained) if unexplained else 0.0, "ms"),
        "trace.overhead_ms": (_mean(latencies(work)) - _mean(latencies(untraced)), "ms"),
    }
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (read_ms[span] / n_reads, "ms")
    # cluster workers set up in parallel: the slowest one is on the path
    for name in ("setup.dataset", "setup.ranking", "setup.session"):
        metrics[f"{name}_s"] = (
            max([v for (n, _proc), v in setup.items() if n == name], default=0.0), "s")
    # the responses' own timings against the spans, per generated OS
    for span, field in (("generate", "resp.generation_ms"), ("select", "resp.algorithm_ms")):
        calls = read_calls[span]
        traced_ms = read_ms[span] / calls if calls else 0.0
        print(f"cross-check {span} per OS: spans {traced_ms:.4f} ms over {calls} calls, "
              f"responses {metrics[field][0]:.4f} ms over {len(uncached)} uncached results")
    return metrics


# ---------------------------------------------------------------------- #
# Orchestration
# ---------------------------------------------------------------------- #
def guards(plan: Any, stats: dict) -> list[str]:
    problems = []
    if plan.mix == "hot" and not plan.live and stats["hit_ratio"] < HOT_MIN_HIT_RATIO:
        problems.append(f"hot working set missed the cache (hit ratio {stats['hit_ratio']:.3f})")
    if plan.mix == "cold" and stats["hit_ratio"] > COLD_MAX_HIT_RATIO:
        problems.append(f"cold mix mostly hit the cache (hit ratio {stats['hit_ratio']:.3f})")
    if stats["client_cpu_share"] > MAX_CLIENT_CPU_SHARE:
        problems.append(f"load generator saturated ({stats['client_cpu_share']:.2f} CPU)")
    return problems


def run(args: argparse.Namespace, out_dir: Path, servers: list) -> tuple:
    """One invocation; returns ``(metrics, failed operations, guard
    failures, operations attempted)``."""
    from workloads import Oracle, make_plan

    plan = make_plan(args.workload, args.seed)
    bodies = [json.dumps(payload).encode() for payload in plan.reads]
    print(f"workload {plan.workload}: {plan.shards} shard(s), cache {plan.cache_size} "
          f"subjects, working set {plan.working_set} subjects, "
          f"{len(plan.reads)} distinct reads")
    work = Workload(plan, bodies)
    if not args.trace:
        setups = []
        for n in range(COLD_STARTS):
            server = Server(plan, out_dir, f"start{n}")
            servers.append(server)
            setups.append(work.first_answer_time(server))
            if n < COLD_STARTS - 1:
                server.stop(graceful=False)  # only its start-up was wanted
        stats = work.run_server(server, args.seconds, probe=True)
        server.stop()
        metrics = end_to_end(work, stats, setups)
        works = [work]
        for name, (value, unit) in client_waits(work).items():
            print(f"client side: {name} {value:.3f} {unit}")
    else:
        spans_path = out_dir / "spans.jsonl"
        traced = Server(plan, out_dir, "traced", spans=str(spans_path), launcher=True)
        servers.append(traced)
        work.first_answer_time(traced)
        stats = work.run_server(traced, args.seconds / 2, probe=True)
        traced.stop()  # the spans are written as it exits
        untraced = Workload(plan, bodies)
        plain = Server(plan, out_dir, "untraced", launcher=True)
        servers.append(plain)
        untraced.first_answer_time(plain)
        untraced_stats = untraced.run_server(plain, args.seconds / 2, probe=False)
        plain.stop()
        metrics = per_layer(work, stats, spans_path, untraced, untraced_stats)
        works = [work, untraced]
    print(f"timed phase {stats['wall_s']:.2f} s, cache hit ratio {stats['hit_ratio']:.4f}, "
          f"load generator {stats['client_cpu_share']:.3f} CPU")
    failed = check(works, Oracle(plan))
    attempted = sum(len(w.reads) + 2 * len(w.flips) for w in works)
    return metrics, failed, guards(plan, stats), attempted


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)  # so no cold start compiles
    out_dir = ROOT / ".e2ebench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    servers: list[Server] = []

    def abort() -> None:
        for server in servers:
            server.stop(graceful=False)
        print("error: run exceeded the watchdog", file=sys.stderr)
        os._exit(3)

    # a SIGTERM from outside unwinds through the finally below, which
    # stops every server this run started
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    watchdog = threading.Timer(WATCHDOG_SECONDS, abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        metrics, failed, invalid, attempted = run(args, out_dir, servers)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for server in servers:
            server.stop()
        watchdog.cancel()
    for problem in invalid + failed[:20]:
        print(f"FAIL {problem}")
    print(f"operations attempted {attempted}, failed {len(failed)}, "
          f"error_rate {len(failed) / max(1, attempted):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    correct = not failed and not invalid
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
