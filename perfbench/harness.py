"""The server process, the load loops and the statistics they report.

Time is ``time.perf_counter`` throughout (CLOCK_MONOTONIC on Linux, so
the generator's and the server's span timestamps share one clock).
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``launcher.py`` child: spawned on construction, stopped (and
    waited for) by :meth:`stop`."""

    def __init__(self, cpu: int | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        # one malloc arena: otherwise the peak RSS depends on which
        # executor thread's arena a burst of work lands in (replan_feed
        # read 141 or 160 MiB at random with the default)
        env["MALLOC_ARENA_MAX"] = "1"
        command = [sys.executable, str(HERE / "launcher.py")]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        try:
            words = self._answer(READY_TIMEOUT_S).split()
            if len(words) != 2 or words[0] != "ready":
                raise RuntimeError(f"server did not start: {words!r}")
            self.port = int(words[1])
        except BaseException:
            self.kill()
            raise

    def _answer(self, timeout_s: float) -> str:
        ready, __, __ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            raise RuntimeError(f"server silent for {timeout_s}s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait()}"
            )
        return line.strip()

    def command(self, line: str) -> None:
        """Send one launcher command and wait for its ``ok``."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self._answer(STOP_TIMEOUT_S)
        if answer != "ok":
            raise RuntimeError(f"server refused {line!r}: {answer}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass


class Exchange:
    """One request's timings: when it was due, sent and answered."""

    __slots__ = ("due", "sent", "done", "cid", "reply")

    def __init__(self, due: float) -> None:
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.cid = None
        self.reply = None


def open_loop(client, submit, count: int, rate_per_s: float) -> list[Exchange]:
    """Send ``count`` requests on a fixed schedule, whatever the replies.

    ``submit(i)`` pipelines request ``i`` on ``client`` and returns its
    correlation id.  A receiver thread reads replies (in order) while
    this thread keeps to the schedule, so a slow reply delays no later
    send; each request's latency is then timed from its due time.
    """
    exchanges = [Exchange(0.0) for __ in range(count)]
    sent = threading.Semaphore(0)
    abandon = threading.Event()
    failure: list[BaseException] = []

    def receive() -> None:
        try:
            for exchange in exchanges:
                sent.acquire()
                if abandon.is_set():
                    return
                exchange.reply = next(client.stream())
                exchange.done = time.perf_counter()
        except BaseException as err:  # re-raised by the sender below
            failure.append(err)

    receiver = threading.Thread(target=receive, name="perfbench-receiver")
    receiver.start()
    start = time.perf_counter() + 0.005
    released = 0
    try:
        for index, exchange in enumerate(exchanges):
            exchange.due = start + index / rate_per_s
            wait = exchange.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if failure:
                break
            exchange.sent = time.perf_counter()
            exchange.cid = submit(index)
            client.stream()  # flushes the frame; replies are read above
            sent.release()
            released += 1
    finally:
        if released < count:
            abandon.set()
            sent.release()
        receiver.join()
    if failure:
        raise failure[0]
    return exchanges


def closed_loop(client, submit, outstanding: int, *, seconds=None, count=None):
    """Keep ``outstanding`` requests in flight until ``seconds`` have
    passed or ``count`` requests were sent, then drain.

    ``submit(i)`` pipelines request ``i``.  Returns ``(exchanges,
    throughput_per_s)``; a timed loop counts the replies answered inside
    its window over the window (not the ramp-down after it), a counted
    loop its requests over the time they took.
    """
    exchanges: list[Exchange] = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    limit = count if count is not None else float("inf")

    def send() -> None:
        exchange = Exchange(time.perf_counter())
        exchange.sent = exchange.due
        exchange.cid = submit(len(exchanges))
        exchanges.append(exchange)

    for __ in range(min(outstanding, limit)):
        send()
    replies = client.stream()
    head = 0
    while head < len(exchanges):
        exchange = exchanges[head]
        exchange.reply = next(replies)
        exchange.done = time.perf_counter()
        head += 1
        if exchange.done < deadline and len(exchanges) < limit:
            send()
            client.stream()  # flush the new frame
    if seconds is None:
        return exchanges, len(exchanges) / (exchanges[-1].done - start)
    answered = sum(1 for exchange in exchanges if exchange.done <= deadline)
    return exchanges, answered / seconds


def by_slice(exchanges, start: float, seconds: float, slices: int) -> list:
    """Exchanges grouped by the equal time slice their reply fell in;
    replies after the window are left out."""
    groups = [[] for __ in range(slices)]
    width = seconds / slices
    for exchange in exchanges:
        index = int((exchange.done - start) / width)
        if 0 <= index < slices:
            groups[index].append(exchange)
    return groups


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; failures enter as ``inf``."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def sliced_percentile(slices, q: float) -> float:
    """The median, over a run's time slices, of each slice's ``q``-th
    percentile.

    The host stalls now and then, for some milliseconds; a stall puts a
    burst of slow requests into one slice, which the median slice
    ignores, where one percentile over the whole run would move with
    the number of stalls.
    """
    values = [np.percentile(s, q) for s in slices if len(s)]
    return float(np.median(values)) if values else 0.0


def finite(value: float) -> float:
    """JSON has no infinity: a latency that every failure pushed past
    all limits is reported as the largest float instead."""
    return value if np.isfinite(value) else sys.float_info.max
