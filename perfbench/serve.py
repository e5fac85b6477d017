"""The ``serve-ingest`` workload: the ``bps serve`` daemon under open-loop load.

The daemon runs as its own process (``python -m repro serve --tcp
127.0.0.1:0 --http 127.0.0.1:0``); its ephemeral ports come from its
``serve: listening on ...`` banner.  This process is the only load
generator.  It feeds one tenant connection with pre-encoded
seq-numbered, checksummed lines on a fixed schedule (open loop) over a
ladder of offered rates, and a second connection scrapes
``GET /metrics`` about once a second.  A ``sync`` line every
``SYNC_EVERY`` seconds asks for an immediate ack; an ack's latency is
measured from the time the last record it covers was due to be sent,
so a stall counts against every record queued behind it.

The untraced run offers ``BURST`` records far above capacity, on a
fresh tenant each time, once per ``BURST_EVERY_S`` of ``--seconds``;
``wall_s`` is the mean time to absorb one burst.  The traced run first
offers the whole ladder on one tenant, then one burst: the lowest
rung's ack p50/p90 are ``serve.ack_ms_p50/p90``, ``max_rate_rps`` is
the highest rung whose ack p90 stays <= 50 ms with no growing
backlog, and the burst's admitted rate is ``serve.saturated_rps``.

Oracles: the tenant's final ``ops`` equals the records sent, its BPS
equals batch ``compute_metrics`` over the same records bit for bit,
and the daemon drains and exits 0 on SIGTERM.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from statistics import fmean

from harness import (
    OUT_DIR, ROOT, Checks, Tracer, percentile, proc_cpu_seconds,
    proc_peak_rss_mb, self_time_by_layer,
)
import inputs
from speed import SpeedMeter, medians

from repro.core.metrics import compute_metrics
from repro.core.records import TraceCollection
from repro.serve import protocol

#: (offered records/s, seconds) rungs of the ladder; a pause follows each.
LADDER = ((2500, 1.0), (5000, 1.0), (10000, 1.0), (20000, 1.0))
PAUSE = 0.3
#: The top rung: this many records offered at this rate, far above
#: capacity.  A small burst leaves room for many in a run, so
#: ``wall_s`` is a mean over many readings.
BURST = 10_000
BURST_RATE = 100_000
#: The daemon keeps every finished tenant for inspection, so its memory
#: grows with the number of bursts: the count is fixed by ``--seconds``
#: (one per this many seconds, about what a burst takes on a 2-core
#: box), never by how fast the run goes, and ``peak_rss_mb`` does not
#: follow the machine's speed.
BURST_EVERY_S = 0.75
SYNC_EVERY = 0.01
SCRAPE_EVERY = 1.0
LATENCY_LIMIT_S = 0.050
#: A rung keeps up when it admits at least this share of its offered rate.
KEEP_UP = 0.95
SETUP_REPEATS = 3
BANNER_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0

_BANNER = re.compile(r"serve: listening on (tcp|http) ([0-9.]+):(\d+)")


def schedule(rungs) -> tuple[list, list]:
    """Due offsets (s from session start) per record, and each rung's
    ``(rate, first seq, end seq)``."""
    due, spans = [], []
    t = 0.0
    for rate, seconds in rungs:
        first = len(due)
        due.extend(t + i / rate for i in range(int(rate * seconds)))
        spans.append((rate, first, len(due)))
        t += seconds + PAUSE
    return due, spans


LADDER_DUE, LADDER_RUNGS = schedule(LADDER)
BURST_DUE, BURST_RUNGS = schedule(((BURST_RATE, BURST / BURST_RATE),))


class Daemon:
    """One ``bps serve`` process; always reaped by :meth:`stop`."""

    def __init__(self, profile_path=None) -> None:
        cmd = [sys.executable]
        if profile_path is not None:
            cmd += ["-m", "cProfile", "-o", str(profile_path)]
        cmd += ["-m", "repro", "serve", "--tcp", "127.0.0.1:0",
                "--http", "127.0.0.1:0"]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, cwd=ROOT,
                                     env=env)
        self.addresses: dict[str, tuple[str, int]] = {}
        self.output = b""
        try:
            self._await_banner()
        except BaseException:
            self.stop()
            raise
        #: Spawn to banner: start and end times.
        self.startup = (t0, time.perf_counter())

    def _await_banner(self) -> None:
        deadline = time.monotonic() + BANNER_TIMEOUT
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while len(self.addresses) < 2:
                left = deadline - time.monotonic()
                if left <= 0 or not selector.select(left):
                    raise RuntimeError("serve daemon printed no banner")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"serve daemon exited early: {self.output!r}")
                self.output += chunk
                for match in _BANNER.finditer(self.output.decode()):
                    kind, host, port = match.groups()
                    self.addresses[kind] = (host, int(port))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> tuple[int, str]:
        """SIGTERM drain first; kill if it overruns. Returns the exit
        code and everything the daemon printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.output += rest or b""
        return self.proc.returncode, self.output.decode(errors="replace")


async def _scrape(address, path: str) -> tuple[float, bytes]:
    t0 = time.perf_counter()
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
    await writer.drain()
    body = await reader.read()
    writer.close()
    await writer.wait_closed()
    return time.perf_counter() - t0, body.split(b"\r\n\r\n", 1)[1]


async def _session(daemon: Daemon, tenant: str, lines: list, due: list,
                   rung_ends: set) -> dict:
    """One tenant: hello, the scheduled lines, end, result, status.

    Lines are written when due (open loop); a ``sync`` rides along at
    most every ``SYNC_EVERY`` seconds and after each rung's last line.
    """
    reader, writer = await asyncio.open_connection(*daemon.addresses["tcp"])
    writer.write(protocol.control_line("hello", tenant=tenant))
    await writer.drain()
    welcome = json.loads(await reader.readline())
    if welcome.get("type") != "welcome":
        raise RuntimeError(f"no welcome: {welcome}")
    acks: list[tuple[float, int]] = []
    result: dict = {}

    async def read_replies() -> None:
        while True:
            line = await reader.readline()
            if not line:
                raise RuntimeError("daemon closed the tenant connection")
            reply = json.loads(line)
            if reply["type"] == "ack":
                acks.append((time.perf_counter(), reply["next_seq"]))
            elif reply["type"] == "result":
                result.update(reply)
                return
            else:
                raise RuntimeError(f"unexpected reply {reply}")

    scrapes: list[float] = []
    stop_scraping = asyncio.Event()

    async def scraper() -> None:
        while not stop_scraping.is_set():
            latency, _body = await _scrape(daemon.addresses["http"],
                                           "/metrics")
            scrapes.append(latency)
            try:
                await asyncio.wait_for(stop_scraping.wait(), SCRAPE_EVERY)
            except asyncio.TimeoutError:
                pass

    replies = asyncio.create_task(read_replies())
    scraping = asyncio.create_task(scraper())
    sync = protocol.control_line("sync")
    start = time.perf_counter() + 0.05
    due_at = [start + d for d in due]
    lags: list[tuple[int, float]] = []
    i, n = 0, len(lines)
    last_sync = start
    while i < n:
        now = time.perf_counter()
        if due_at[i] > now:
            await asyncio.sleep(min(due_at[i] - now, 0.002))
            continue
        j = bisect.bisect_right(due_at, now, lo=i)
        j = min([j] + [end for end in rung_ends if i < end < j])
        lags.append((i, now - due_at[i]))
        payload = b"".join(lines[i:j])
        if now - last_sync >= SYNC_EVERY or j in rung_ends:
            payload += sync
            last_sync = now
        writer.write(payload)
        await writer.drain()
        i = j
    writer.write(protocol.control_line("end"))
    await writer.drain()
    await asyncio.wait_for(replies, DRAIN_TIMEOUT)
    stop_scraping.set()
    await scraping
    _latency, body = await _scrape(daemon.addresses["http"],
                                   f"/tenants/{tenant}")
    writer.close()
    await writer.wait_closed()
    return {"acks": acks, "result": result, "status": json.loads(body),
            "scrapes": scrapes, "lags": lags, "due_at": due_at}


def _rung_stats(session: dict, rungs: list, tracer: Tracer | None) -> list:
    """Per rung: ack latency percentiles, generator lag, and the rate
    admitted from the rung's first due time to the ack covering its
    last record."""
    due_at, acks = session["due_at"], session["acks"]
    stats = []
    for rate, first, end in rungs:
        latencies = [t - due_at[seq - 1] for t, seq in acks
                     if first < seq <= end]
        if not latencies:
            raise RuntimeError(f"no acks for the {rate} rec/s rung")
        done = min(t for t, seq in acks if seq >= end)
        elapsed = done - due_at[first]
        stats.append({
            "rate": rate, "p50": percentile(latencies, 50),
            "p90": percentile(latencies, 90), "elapsed": elapsed,
            "span": (due_at[first], done),
            "admitted_rps": (end - first) / elapsed,
            "lags": [lag for seq, lag in session["lags"]
                     if first <= seq < end],
        })
        if tracer is not None:
            tracer.add(f"rung:{rate}", due_at[first], done)
    return stats


def check_result(checks: Checks, result: dict, sent: int,
                 batch: TraceCollection) -> None:
    """The oracles for a tenant's result line."""
    final = result.get("final", {})
    checks.check(final.get("ops") == sent,
                 f"serve: ops {final.get('ops')} != {sent} records sent")
    checks.check(result.get("state") == "drained",
                 f"serve: tenant state {result.get('state')}")
    exec_time = final.get("exec_time")
    want = None if exec_time is None \
        else compute_metrics(batch, exec_time=exec_time).bps
    checks.check(want is not None and final.get("bps") == want,
                 f"serve: BPS {final.get('bps')!r} != batch {want!r}")


def offer(daemon: Daemon, tenant: str, load, due: list, rungs: list,
          checks: Checks, tracer: Tracer | None = None) -> dict:
    """Run one tenant session and check its result against the batch."""
    n = len(due)
    cpu0 = proc_cpu_seconds(daemon.pid)
    session = asyncio.run(_session(daemon, tenant, load.lines[:n], due,
                                   {end for _r, _f, end in rungs}))
    cpu = proc_cpu_seconds(daemon.pid) - cpu0
    check_result(checks, session["result"], n, batch_trace(load, n))
    return {"stats": _rung_stats(session, rungs, tracer), "cpu": cpu,
            "records": n, "scrapes": session["scrapes"],
            "status": session["status"]}


def batch_trace(load, n: int) -> TraceCollection:
    """The first ``n`` generated records as one batch trace."""
    return TraceCollection(load.records[:n])


def _spawn_measured(meter: SpeedMeter) -> tuple[Daemon, list]:
    """Spawn ``SETUP_REPEATS`` daemons one after another; keep the last.
    Returns it with each spawn-to-banner time, measured and in
    reference seconds."""
    starts = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon()
            starts.append(meter.timed(*daemon.startup))
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon, starts


def _max_rate(stats: list) -> float:
    ok = [s["rate"] for s in stats if s["p90"] <= LATENCY_LIMIT_S
          and s["admitted_rps"] >= KEEP_UP * s["rate"]]
    return max(ok, default=0.0)


def run(seed: int, seconds: float, traced: bool, checks: Checks) -> dict:
    load = inputs.serve_lines(seed, max(len(LADDER_DUE), len(BURST_DUE)))
    with SpeedMeter(OUT_DIR / "serve-ingest-speed.txt") as meter:
        if traced:
            daemon, starts = Daemon(), []
        else:
            daemon, starts = _spawn_measured(meter)
        try:
            ladder = None
            if traced:
                ladder = offer(daemon, "ladder", load, LADDER_DUE,
                               LADDER_RUNGS, checks)
            n_bursts = 1 if traced else max(1, round(seconds / BURST_EVERY_S))
            bursts = []
            for i in range(n_bursts):
                bursts.append(offer(daemon, f"burst{i}", load, BURST_DUE,
                                    BURST_RUNGS, checks))
                top = bursts[-1]["stats"][0]
                top["ref_elapsed"] = meter.reference_seconds(top["elapsed"],
                                                             *top["span"])
            peak = proc_peak_rss_mb(daemon.pid)
        finally:
            code, output = daemon.stop()
        sample_ms = meter.mean_sample_ms()
    checks.check(code == 0 and "exiting cleanly" in output,
                 f"serve: daemon exit {code}: {output[-300:]!r}")

    setup, setup_ref = medians(starts)
    tops = [b["stats"][0] for b in bursts]
    metrics = {
        "setup_s": setup_ref,
        "peak_rss_mb": peak,
        "wall_s": fmean(top["ref_elapsed"] for top in tops),
        "raw": {"setup_s": setup,
                "wall_s": fmean(top["elapsed"] for top in tops),
                "sample_ms": sample_ms},
    }
    if traced:
        metrics.update(_traced(seed, ladder, bursts, load, checks))
    return metrics


def _traced(seed, ladder, bursts, load, checks) -> dict:
    """The ladder and one burst against a cProfile'd daemon, with one
    span per rung; self time per module from the daemon's profile."""
    prof_path = OUT_DIR / f"serve-ingest-seed{seed}-daemon.prof"
    prof_path.unlink(missing_ok=True)
    tracer = Tracer()
    daemon = Daemon(profile_path=prof_path)
    try:
        offer(daemon, "ladder", load, LADDER_DUE, LADDER_RUNGS, checks,
              tracer)
        profiled = offer(daemon, "burst", load, BURST_DUE, BURST_RUNGS,
                         checks, tracer)
    finally:
        code, output = daemon.stop()
    checks.check(code == 0 and prof_path.exists(),
                 f"serve: profiled daemon exit {code}: {output[-300:]!r}")
    tracer.write(OUT_DIR / f"serve-ingest-seed{seed}-spans.json")
    by_layer, by_module, total = self_time_by_layer(prof_path)
    sessions = [ladder] + bursts
    top = bursts[0]["stats"][0]
    scrapes = ladder["scrapes"] + bursts[0]["scrapes"]
    statuses = [s["status"] for s in sessions]
    budgets = [st.get("budget", {}) for st in statuses]
    return {
        "serve.cpu_us_per_rec": 1e6 * sum(s["cpu"] for s in sessions)
        / sum(s["records"] for s in sessions),
        "serve.protocol.self_share":
            by_module.get("serve.protocol", 0.0) / total,
        "serve.tenant.self_share":
            by_module.get("serve.tenant", 0.0) / total,
        "serve.live.self_share": by_layer.get("live", 0.0) / total,
        "serve.ack_ms_p50": 1e3 * ladder["stats"][0]["p50"],
        "serve.ack_ms_p90": 1e3 * ladder["stats"][0]["p90"],
        "serve.max_rate_rps": _max_rate(ladder["stats"]),
        "serve.saturated_rps": top["admitted_rps"],
        "serve.backlog_rps": top["rate"] - top["admitted_rps"],
        "serve.gen_lag_ms_p99": 1e3 * percentile(
            [lag for s in ladder["stats"] for lag in s["lags"]], 99),
        "serve.scrape_ms_p50": 1e3 * percentile(scrapes, 50),
        "serve.scrape_ms_p90": 1e3 * percentile(scrapes, 90),
        "serve.throttled": sum(b.get("throttle_delays", 0) for b in budgets),
        "serve.shed": sum(b.get("records_shed", 0) for b in budgets),
        "serve.forced_watermarks":
            sum(st.get("forced_watermarks", 0) for st in statuses),
        "trace.overhead_s": profiled["stats"][0]["elapsed"] - top["elapsed"],
        "trace.spans": len(tracer.spans),
    }
