"""The three workloads: inputs from the seed, set-up, timed phases and
output checks.

Every workload runs against one ``launcher.py`` server process through
one :class:`~repro.service.client.SocketClient` connection (wire v2),
with its tenant sessions multiplexed over it by correlation id.  The
parameters, and the reasons for them, live in ``workloads.json``.

A timed phase is cut into equal time slices; each latency percentile
and the throughput are the median over the slices (see
:func:`harness.sliced_percentile`).
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import harness
import layers
import tracing

SPEC_FILE = harness.HERE / "workloads.json"
OUT_DIR = harness.ROOT / ".perfbench_out"


def load_spec(workload: str, **overrides) -> dict:
    """The workload's parameters over the shared defaults."""
    spec = json.loads(SPEC_FILE.read_text())
    merged = dict(spec["defaults"])
    merged.update(spec["workloads"][workload]["params"])
    merged.update(overrides)
    return merged


@dataclass
class Phase:
    """What one timed phase produced."""

    slices: list = field(default_factory=list)
    """Per time slice, each op's latency in ms; a failed op is ``inf``."""
    rates: list = field(default_factory=list)
    """Per time slice, the throughput."""
    late_ms: list = field(default_factory=list)
    """Per op, how far behind its schedule the generator sent it (open
    loop) or how long it took to send the next op (closed loop)."""
    requests: list = field(default_factory=list)
    """``(cid, sent_s, done_s)`` of every timed request."""
    queries: int = 0
    """Query rows answered (a batch frame counts its rows)."""
    batch_rows: int = 0

    def latency(self, q: float) -> float:
        return harness.sliced_percentile(self.slices, q)


class Workload:
    """Shared run logic: set-up (repeated for ``setup_s``), warm-up, the
    timed phases, output checks, and the metrics of one run."""

    name = ""

    def __init__(self, spec: dict, seed: int, seconds: float, trace: bool,
                 server_cpu: int | None = None) -> None:
        from repro.datagen.gaussian import random_gaussian_field
        from repro.network.builder import random_topology
        from repro.network.energy import EnergyModel

        self.spec = spec
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.server_cpu = server_cpu
        # one fixed deployment: tree, field model and the set-up sample
        # window, so every seed installs the same first plans; the seed
        # draws the readings the workload then feeds and queries
        deployment = np.random.default_rng(spec["deployment_seed"])
        self.topology = random_topology(
            spec["n"], rng=deployment, radio_range=spec["radio_range"]
        )
        field_model = random_gaussian_field(spec["n"], deployment)
        self.window = field_model.trace(spec["window_rows"], deployment).values
        rng = np.random.default_rng(seed)
        self.pool = field_model.trace(spec["pool_rows"], rng).values
        self.energy = EnergyModel.mica2()
        self.k = spec["k"]
        self.budget = (
            spec["budget_factor"] * self.energy.message_cost(1) * self.k
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorder = tracing.Recorder()
        self.epochs = 0
        self.rss_mb = 0.0

    # -- hooks ------------------------------------------------------------
    def open_sessions(self, client, topology_id: str) -> list:
        """Open the workload's sessions (set-up then feeds their windows)."""
        raise NotImplementedError

    def warmup(self) -> None:
        """A fixed amount of untimed work."""
        raise NotImplementedError

    def timed(self, seconds: float, *, with_throughput: bool) -> Phase:
        raise NotImplementedError

    def check(self) -> None:
        """Compare every recorded answer with its reference."""
        raise NotImplementedError

    def accuracy_mean(self) -> float:
        """Mean track-truth accuracy over a fixed set of answers."""
        raise NotImplementedError

    def served_handles(self) -> list:
        """Sessions whose energy the paper metric divides by epochs."""
        return self.handles

    # -- bookkeeping ------------------------------------------------------
    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def ok(self, reply, kind: str) -> bool:
        """One attempted op; a reply of another kind counts as failed."""
        self.attempted += 1
        if getattr(reply, "kind", None) == kind:
            return True
        self.fail(f"expected {kind}, got {reply!r}")
        return False

    # -- set-up -----------------------------------------------------------
    def _setup_once(self):
        from repro.service.client import SocketClient

        started = time.perf_counter()
        server = harness.ServerProcess(self.server_cpu)
        try:
            if self.trace:
                server.command("spans")
            client = SocketClient(
                "127.0.0.1", server.port,
                timeout_s=self.spec["client_timeout_s"], protocol="v2",
            )
            handles = self.open_sessions(
                client, client.register_topology(self.topology)
            )
            for handle in handles:
                for row in self.window:
                    handle.feed_nowait(row)
            for reply in client.drain():
                if reply.kind != "sample_accepted":
                    raise RuntimeError(f"set-up feed failed: {reply!r}")
            for handle in handles:
                handle.plan()
        except BaseException:
            server.stop()
            raise
        return time.perf_counter() - started, server, client, handles

    def setup(self) -> float:
        """Spawn and set up the server ``setup_repeats`` times (once when
        tracing), keep the last one, and return the median set-up time."""
        repeats = 1 if self.trace else self.spec["setup_repeats"]
        samples = []
        for attempt in range(repeats):
            elapsed, server, client, handles = self._setup_once()
            samples.append(elapsed)
            if attempt < repeats - 1:
                client.close()
                server.stop()
        self.server, self.client, self.handles = server, client, handles
        return statistics.median(samples)

    # -- the run ----------------------------------------------------------
    def run(self) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        setup_s = self.setup()
        # the generator's own collector pauses would show up as server
        # latency; what it allocates from here on is freed by refcount
        gc.collect()
        gc.disable()
        try:
            self.warmup()
            # peak memory after a fixed amount of work: a time-bound run
            # does more work on a faster build, and every query grows
            # its session's energy ledger
            self.rss_mb = self.server.peak_rss_mb()
            if self.trace:
                metrics = self._traced_run()
            else:
                metrics = self._untraced_run(setup_s)
        finally:
            gc.enable()
            self.client.close()
            self.server.stop()
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": harness.finite(float(value)), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def _check_lateness(self, phase: Phase) -> float:
        late_p99 = harness.percentile(phase.late_ms, 99)
        bound = self.spec["late_p99_bound_ms"]
        if late_p99 > bound:
            self.problems.append(
                f"run invalid: generator ran {late_p99:.3f} ms late at p99"
                f" (bound {bound} ms)"
            )
        return late_p99

    def _finish(self) -> tuple[dict, float]:
        """Output checks, service stats, and the energy per epoch of the
        served sessions, which this closes."""
        self.check()
        stats = self.client.stats().counters
        energy = sum(
            handle.close().total_energy_mj for handle in self.served_handles()
        )
        return stats, energy / max(self.epochs, 1)

    def _untraced_run(self, setup_s: float) -> dict:
        phase = self.timed(self.seconds, with_throughput=True)
        self._check_lateness(phase)
        __, energy_per_epoch = self._finish()
        return {
            "setup_s": (setup_s, "s"),
            "latency_p50_ms": (phase.latency(50), "ms"),
            "throughput_per_s": (float(np.median(phase.rates)), "1/s"),
            "accuracy_mean": (self.accuracy_mean(), "ratio"),
            "energy_mj_per_epoch": (energy_per_epoch, "mJ"),
            "server_peak_rss_mb": (self.rss_mb, "MiB"),
        }

    def _traced_run(self) -> dict:
        """Three passes of a third of the time each: timed wrappers on
        both sides, no wrappers (the overhead baseline and the lateness
        check), and the counting pass."""
        third = self.seconds / 3.0
        client_patches = tracing.install_client_spans(self.recorder)
        try:
            traced = self.timed(third, with_throughput=False)
        finally:
            client_patches.restore()
        for cid, sent, done in traced.requests:
            self.recorder.record(
                "service.client.request", int(sent * 1e9), int(done * 1e9), cid
            )
        self.server.command("off")
        untraced = self.timed(third, with_throughput=False)
        late_p99 = self._check_lateness(untraced)
        self.server.command("counts")
        counted = self.timed(third, with_throughput=False)
        self.server.command("off")
        dump = OUT_DIR / f"server-{self.name}.json"
        self.server.command(f"dump {dump}")
        server = json.loads(dump.read_text())
        dump.unlink()
        server_spans = [tuple(span) for span in server["spans"]]
        stats, __ = self._finish()
        (OUT_DIR / f"trace-{self.name}.json").write_text(
            json.dumps(tracing.chrome_trace({
                "server": server_spans, "generator": self.recorder.spans,
            }))
        )
        return layers.per_layer(
            server_spans=server_spans,
            counts=server["counts"],
            client_spans=self.recorder.spans,
            traced=traced,
            untraced=untraced,
            counted=counted,
            stats=stats,
            late_p99_ms=late_p99,
        )


def _latencies_ms(exchanges, kind: str) -> list:
    """Latency from each request's due time; a failure misses every
    limit."""
    return [
        (ex.done - ex.due) * 1e3
        if getattr(ex.reply, "kind", None) == kind else float("inf")
        for ex in exchanges
    ]


def _sliced(exchanges, start, seconds, slices, kind, *, late_ms, rows) -> Phase:
    """The phase of a closed loop with one op in flight: per time slice,
    the latencies and the rows answered per second."""
    phase = Phase(late_ms=late_ms)
    for group in harness.by_slice(exchanges, start, seconds, slices):
        phase.slices.append(_latencies_ms(group, kind))
        phase.rates.append(rows * len(group) / (seconds / slices))
    phase.requests = [(ex.cid, ex.sent, ex.done) for ex in exchanges]
    phase.queries = rows * len(exchanges)
    return phase


# -- query_stream --------------------------------------------------------------


class QueryStream(Workload):
    """Steady-state reads from many tenants sharing one plan."""

    name = "query_stream"

    def open_sessions(self, client, topology_id):
        self.answers = []
        self.accuracies = []
        self.open_sent = 0
        self.closed_sent = 0
        return [
            client.open_session(
                topology_id, self.k, planner="lp-lf", budget_mj=self.budget,
                window_capacity=self.spec["window_rows"],
            )
            for __ in range(self.spec["tenants"])
        ]

    def _submit(self, index: int) -> int:
        # pool_rows is a multiple of the tenant count, so row r always
        # goes to tenant r % tenants: one reference answer per row
        row = index % len(self.pool)
        self.epochs += 1
        return self.handles[row % len(self.handles)].query_nowait(
            self.pool[row]
        )

    def _record(self, exchanges, first: int) -> None:
        for offset, exchange in enumerate(exchanges):
            self.ok(exchange.reply, "query_reply")
            self.answers.append(((first + offset) % len(self.pool), exchange.reply))

    def _closed(self, **limit) -> float:
        base = self.closed_sent
        exchanges, throughput = harness.closed_loop(
            self.client, lambda i: self._submit(base + i),
            self.spec["closed_outstanding"], **limit,
        )
        self._record(exchanges, base)
        self.closed_sent += len(exchanges)
        return throughput

    def warmup(self) -> None:
        self._closed(count=len(self.pool))

    def timed(self, seconds, *, with_throughput):
        """Per slice: an open-loop stretch at the fixed rate, then (for
        the throughput) a closed-loop stretch of ``closed_outstanding``."""
        slices = self.spec["slices"]
        rate = self.spec["rate_per_s"]
        share = self.spec["open_share"] if with_throughput else 1.0
        count = max(1, round(rate * seconds * share / slices))
        phase = Phase()
        for __ in range(slices):
            base = self.open_sent
            exchanges = harness.open_loop(
                self.client, lambda i: self._submit(base + i), count, rate
            )
            self.open_sent += count
            self._record(exchanges, base)
            for exchange in exchanges:
                if len(self.accuracies) < len(self.pool):  # one pass
                    self.accuracies.append(
                        getattr(exchange.reply, "accuracy", None)
                    )
                phase.requests.append((exchange.cid, exchange.sent, exchange.done))
                phase.late_ms.append((exchange.sent - exchange.due) * 1e3)
            phase.slices.append(_latencies_ms(exchanges, "query_reply"))
            phase.queries += count
            if with_throughput:
                phase.rates.append(
                    self._closed(seconds=seconds * (1.0 - share) / slices)
                )
        return phase

    def accuracy_mean(self) -> float:
        scores = [score for score in self.accuracies if score is not None]
        return float(np.mean(scores)) if scores else 0.0

    def check(self) -> None:
        """Every answer equals a local ``repro.api.simulate`` replay of
        its session's installed plan (nodes exactly, energy to 1e-9)."""
        from repro import api
        from repro.plans.serialize import plan_from_dict

        plans = [plan_from_dict(h.plan(), self.topology) for h in self.handles]
        reference = {}
        for row, reply in self.answers:
            if reply.kind != "query_reply":
                continue  # already counted as failed
            expected = reference.get(row)
            if expected is None:
                report = api.simulate(
                    self.topology, self.energy,
                    plans[row % len(plans)], self.pool[row],
                )
                expected = reference[row] = (
                    tuple(node for __, node in report.returned[: self.k]),
                    report.energy_mj,
                )
            nodes, energy = expected
            if tuple(reply.nodes) != nodes or abs(
                reply.energy_mj - energy
            ) > 1e-9 * max(1.0, abs(energy)):
                self.fail(
                    f"row {row}: service answered {reply.nodes}"
                    f" ({reply.energy_mj} mJ), replay gives {nodes}"
                    f" ({energy} mJ)"
                )


# -- replan_feed ---------------------------------------------------------------


class ReplanFeed(Workload):
    """Feeds beside reads: every query re-plans (paper §4.4 re-sampling)."""

    name = "replan_feed"

    def open_sessions(self, client, topology_id):
        from repro.planners.base import PlanningContext
        from repro.planners.proof import ProofPlanner
        from repro.sampling.matrix import SampleMatrix

        self.context = PlanningContext(
            topology=self.topology, energy=self.energy,
            samples=SampleMatrix(self.window, self.k), k=self.k,
            budget=float("inf"),
        )
        proof_budget = (
            self.spec["proof_budget_factor"]
            * ProofPlanner().minimum_cost(self.context)
        )
        self.budgets = []
        handles = []
        for planner in self.spec["planners"]:
            budget = proof_budget if planner == "proof" else self.budget
            self.budgets.append(budget)
            handles.append(client.open_session(
                topology_id, self.k, planner=planner, budget_mj=budget,
                window_capacity=self.spec["window_rows"],
            ))
        self.ops = 0
        self.plans = []
        self.scores = []
        return handles

    def _op(self, *, timed: bool):
        """One op: feed a row, query another, fetch the installed plan
        (for the budget check); sessions take turns.  Returns the query's
        exchange and when the op finished."""
        from repro.service import messages as msg

        index = self.ops
        self.ops += 1
        slot = index % len(self.handles)
        handle = self.handles[slot]
        feed_row = self.pool[(2 * index) % len(self.pool)]
        query_row = self.pool[(2 * index + 1) % len(self.pool)]
        exchange = harness.Exchange(time.perf_counter())
        exchange.sent = exchange.due
        handle.feed_nowait(feed_row)
        exchange.cid = handle.query_nowait(query_row)
        self.client.submit_nowait(msg.GetPlan(session_id=handle.session_id))
        replies = self.client.stream()
        fed = next(replies)
        exchange.reply = next(replies)
        exchange.done = time.perf_counter()
        plan = next(replies)
        self.epochs += 1
        good = self.ok(fed, "sample_accepted") & self.ok(
            exchange.reply, "query_reply"
        )
        if self.ok(plan, "plan_reply"):
            self.plans.append((slot, plan.plan))
        if good and timed and len(self.scores) < self.spec["accuracy_ops"]:
            self.scores.append(exchange.reply.accuracy)
        return exchange, time.perf_counter()

    def warmup(self) -> None:
        for __ in range(self.spec["warmup_ops"]):
            self._op(timed=False)

    def timed(self, seconds, *, with_throughput):
        """Closed loop, one op in flight; an op's latency runs from its
        start to the query reply (the plan fetch rides along)."""
        start = time.perf_counter()
        exchanges, late_ms = [], []
        finished = start
        while finished < start + seconds:
            previous = finished
            exchange, finished = self._op(timed=True)
            late_ms.append((exchange.sent - previous) * 1e3)
            exchanges.append(exchange)
        return _sliced(
            exchanges, start, seconds, self.spec["slices"], "query_reply",
            late_ms=late_ms, rows=1,
        )

    def accuracy_mean(self) -> float:
        scores = [score for score in self.scores if score is not None]
        return float(np.mean(scores)) if scores else 0.0

    def check(self) -> None:
        """Every installed plan's static cost is within its budget."""
        from repro.plans.serialize import plan_from_dict

        for slot, payload in self.plans:
            cost = self.context.plan_cost(plan_from_dict(payload, self.topology))
            budget = self.budgets[slot]
            if cost > budget * (1.0 + 1e-9):
                self.fail(
                    f"{self.spec['planners'][slot]} plan costs {cost} mJ,"
                    f" over its {budget} mJ budget"
                )


# -- batch_scan ----------------------------------------------------------------


class BatchScan(Workload):
    """Bulk trace replay through ``SubmitBatch`` frames."""

    name = "batch_scan"

    def open_sessions(self, client, topology_id):
        rows = self.spec["batch_rows"]
        self.frames = self.pool.reshape(-1, rows, self.pool.shape[1])
        self.sent = 0
        self.answers = []
        self.first_pass = []
        return [
            client.open_session(
                topology_id, self.k, planner="lp-lf", budget_mj=self.budget,
                window_capacity=self.spec["window_rows"],
            )
            for __ in range(2)  # the scanned session and its twin
        ]

    def served_handles(self):
        return self.handles[:1]

    def _loop(self, **limit):
        base = self.sent
        exchanges, frames_per_s = harness.closed_loop(
            self.client,
            lambda i: self.handles[0].query_batch_nowait(
                self.frames[(base + i) % len(self.frames)]
            ),
            1,
            **limit,
        )
        self.sent += len(exchanges)
        self.epochs += self.spec["batch_rows"] * len(exchanges)
        for offset, exchange in enumerate(exchanges):
            self.ok(exchange.reply, "batch_reply")
            self.answers.append(((base + offset) % len(self.frames), exchange.reply))
        return exchanges, frames_per_s

    def warmup(self) -> None:
        # one pass through the pool: every frame once
        exchanges, __ = self._loop(count=len(self.frames))
        self.first_pass = [exchange.reply for exchange in exchanges]

    def timed(self, seconds, *, with_throughput):
        exchanges, __ = self._loop(seconds=seconds)
        start = exchanges[0].sent
        late_ms, previous = [], start
        for exchange in exchanges:
            late_ms.append((exchange.sent - previous) * 1e3)
            previous = exchange.done
        phase = _sliced(
            exchanges, start, seconds, self.spec["slices"], "batch_reply",
            late_ms=late_ms, rows=self.spec["batch_rows"],
        )
        phase.batch_rows = phase.queries
        return phase

    def accuracy_mean(self) -> float:
        scores = [
            score
            for reply in self.first_pass if reply.kind == "batch_reply"
            for score in reply.accuracies if score is not None
        ]
        return float(np.mean(scores)) if scores else 0.0

    def check(self) -> None:
        """Every batch row is bitwise what ``SubmitQuery`` of that row
        returns on the twin session."""
        twin = self.handles[1]
        reference = {}
        for frame in sorted({frame for frame, __ in self.answers}):
            # one frame's rows per drain keeps both socket buffers short
            for row in self.frames[frame]:
                twin.query_nowait(row)
            reference[frame] = self.client.drain()
        for frame, reply in self.answers:
            if reply.kind != "batch_reply":
                continue  # already counted as failed
            for row, single in enumerate(reference[frame]):
                self.attempted += 1
                if single.kind != "query_reply" or (
                    tuple(reply.nodes[row]), tuple(reply.values[row]),
                    reply.energies[row], reply.accuracies[row],
                ) != (
                    tuple(single.nodes), tuple(single.values),
                    single.energy_mj, single.accuracy,
                ):
                    self.fail(
                        f"frame {frame} row {row}: batch answer differs from"
                        f" the per-row answer {single!r}"
                    )


WORKLOADS = {
    cls.name: cls for cls in (QueryStream, ReplanFeed, BatchScan)
}
