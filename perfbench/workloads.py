"""The benchmark's workloads: inputs, load shape, timing and answer checks.

Each workload function takes its config, the seed, the measuring time and
whether this is the traced run, and returns a :class:`RunResult`.  Inputs
come from :mod:`repro.data.synthetic` and are generated before any timing.
No workload uses more than two client threads, connections or workers.

An untraced run reports the end-to-end metrics: op and set-up CPU times
scaled to a fixed host speed (see :mod:`perfbench.clock`) and peak RSS.
Wall latencies and throughput go to the report line.  A traced run runs the
same load with the layer spans of :mod:`perfbench.tracing` installed for
part of it and reports per-layer metrics per traced op; the difference
between the traced and untraced median op latency is the tracing overhead.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import checks
from perfbench.clock import Reference, children_cpu_s, cpu_s
from perfbench.tracing import Tracer, install_layer_spans, layer_metrics

#: Rows of a self-join whose neighbourhoods are recomputed directly.
CHECK_ROWS = 256
#: The fewest ops a closed-loop phase runs, however long they take.
MIN_OPS = 3


@dataclass
class RunResult:
    """What one run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Op counts per phase and other facts for the report line.
    info: dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a live process (this one by default), in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid or 'self'}/status")


def closed_loop(step: Callable[[int], float],
                seconds: float) -> tuple[List[float], float]:
    """Run ``step(op_id)`` back to back for ``seconds`` (at least MIN_OPS).

    Returns the op latencies ``step`` measured and the loop's wall time.
    """
    latencies: List[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    for op in itertools.count():
        if len(latencies) >= MIN_OPS and time.perf_counter() >= deadline:
            break
        latencies.append(step(op))
    return latencies, time.perf_counter() - start


def wall_figures(latencies, wall: float) -> Dict[str, float]:
    """Wall-clock latency and throughput of a closed loop, for the report."""
    return {"wall_p50_s": float(np.percentile(latencies, 50)),
            "wall_p90_s": float(np.percentile(latencies, 90)),
            "throughput_ops_s": len(latencies) / wall}


def end_to_end(op_costs: List[float], setups: List[float],
               rss: float) -> Dict[str, float]:
    """The end-to-end metrics from scaled op and set-up CPU times."""
    return {"op_cpu_p50_s": float(np.median(op_costs)),
            "setup_s": float(np.median(setups)), "peak_rss_mb": rss}


def traced_closed_loop(step: Callable[[int], float], seconds: float,
                       tracer: Tracer) -> tuple[int, float]:
    """Closed loop tracing every odd op; returns traced ops and overhead.

    Alternating op by op, rather than tracing the second half of the run,
    keeps warm-up drift out of the overhead figure.
    """
    latencies: Dict[bool, List[float]] = {False: [], True: []}

    def alternate(op: int) -> float:
        traced = op % 2 == 1
        if traced:
            install_layer_spans(tracer)
        try:
            elapsed = step(op)
        finally:
            tracer.unwrap_all()
        latencies[traced].append(elapsed)
        return elapsed

    closed_loop(alternate, seconds)
    overhead = float(np.median(latencies[True]) - np.median(latencies[False]))
    return len(latencies[True]), overhead


class Tally:
    """Attempted and failed op counts plus per-op counter excess."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counter_excess: List[int] = []

    def record(self, ok: bool, excess: int = 0) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.counter_excess.append(int(excess))


# --------------------------------------------------------------------------
# self-joins through run_query
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SelfJoinConfig:
    n_points: int
    n_dims: int
    eps: float
    setup_repeats: int = 3


#: Size of the self-join a cold start answers: small, so that start-up,
#: not the query, is what ``setup_s`` measures.
COLD_START_POINTS = 500
#: A new interpreter's path to its first answer: import, data, one query.
COLD_START = """\
import sys
from repro.data.synthetic import uniform_dataset
from repro.engine import Query, run_query
n, dims, eps, seed = sys.argv[1:]
points = uniform_dataset(int(n), int(dims), seed=int(seed), low=0.0, high=1.0)
run_query(Query.self_join(points, float(eps)), backend="vectorized").neighbor_table
"""


def _cold_start(cfg: SelfJoinConfig, seed: int, speed: Reference) -> float:
    """Scaled CPU time of one cold start on ``COLD_START_POINTS`` points."""
    start = children_cpu_s()
    subprocess.run([sys.executable, "-c", COLD_START, str(COLD_START_POINTS),
                    str(cfg.n_dims), str(cfg.eps), str(seed)], check=True)
    return speed.scale(children_cpu_s() - start)


def run_selfjoin(cfg: SelfJoinConfig, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    """Closed loop, one caller: ``run_query(Query.self_join(...))`` to CSR.

    A one-shot query keeps nothing between calls, so its set-up is a new
    process's: ``setup_s`` is the median of ``setup_repeats`` cold starts.
    The first op runs outside the loop; its table is checked row by row
    against direct distances, and every later op must equal it exactly.
    """
    from repro.data.synthetic import uniform_dataset
    from repro.engine import Query, run_query

    points = uniform_dataset(cfg.n_points, cfg.n_dims, seed=seed,
                             low=0.0, high=1.0)
    speed = Reference()
    costs: List[float] = []

    def op():
        start, cpu = time.perf_counter(), cpu_s()
        result = run_query(Query.self_join(points, cfg.eps),
                           backend="vectorized")
        table = result.neighbor_table
        return time.perf_counter() - start, cpu_s() - cpu, result, table

    _, _, _, reference = op()
    reference_ok = checks.selfjoin_rows_match(
        points, cfg.eps, reference,
        checks.sample_rows(cfg.n_points, CHECK_ROWS, seed))
    tally = Tally()
    tracer = Tracer() if trace else None

    def step(op_id: int) -> float:
        if tracer is not None:
            tracer.op = op_id
        elapsed, cpu, result, table = op()
        if tracer is None:
            costs.append(speed.scale(cpu))
        tally.record(reference_ok and checks.csr_valid(table)
                     and table.same_contents_as(reference),
                     result.stats.result_pairs - table.num_pairs)
        return elapsed

    info = {"pairs": reference.num_pairs, "checked_rows":
            int(min(CHECK_ROWS, cfg.n_points))}
    if trace:
        n_traced, overhead = traced_closed_loop(step, seconds, tracer)
        metrics = layer_metrics(tracer.spans, n_traced)
        metrics.update(_idle_layers(), **{
            "trace.overhead_s": overhead,
            "merge.counter_excess": float(np.mean(tally.counter_excess))})
        info.update(ops=tally.attempted, traced_ops=n_traced)
        return RunResult(metrics, tally.attempted, tally.failed, info, tracer)
    setups = [_cold_start(cfg, seed, speed) for _ in range(cfg.setup_repeats)]
    latencies, wall = closed_loop(step, seconds)
    metrics = end_to_end(costs, setups, peak_rss_mib())
    info.update(wall_figures(latencies, wall), ops=len(latencies),
                reference_p50_s=float(np.median(speed.samples)),
                counter_excess=float(np.mean(tally.counter_excess)))
    return RunResult(metrics, tally.attempted, tally.failed, info)


def _idle_layers() -> Dict[str, float]:
    """Layers a workload does not run report 0 (the service-only ones)."""
    return {"session.index_hit_frac": 0.0, "service.fusion_frac": 0.0,
            "service.fused_batch_mean": 0.0, "loadgen.lag_p50_s": 0.0,
            "loadgen.lag_max_s": 0.0}


# --------------------------------------------------------------------------
# the query service
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceConfig:
    n_points: int = 20_000
    eps: float = 0.08
    k: int = 4
    #: One op in ten is a kNN query, the rest are range queries.
    knn_share: float = 0.1
    #: Offered rate of the open-loop phase: about half the closed-loop
    #: capacity of a 2-CPU host (about 200 ops/s).  Fixed, never adapted.
    rate_ops_s: float = 100.0
    connections: int = 2
    workers: int = 2
    #: Share of the run spent in the open loop; the rest is closed loop.
    open_share: float = 0.3
    setup_repeats: int = 3
    #: Query points drawn up front and reused cyclically by op id.
    query_pool: int = 8192


DATASET = "points"
#: The service's closed loop runs in windows this long; each gives one CPU
#: cost per op, and the reference is sampled between windows.
WINDOW_S = 1.0


class _ServerProcess:
    """``python -m repro.service`` in its own process."""

    def __init__(self, workers: int) -> None:
        self.host: Optional[str] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--workers", str(workers)],
            stdout=subprocess.PIPE, text=True)
        try:
            banner = self.proc.stdout.readline()
            if "listening on" not in banner:
                raise RuntimeError(f"service did not start: {banner!r}")
            host, _, port = banner.split()[-1].rpartition(":")
            self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        from repro.service.client import ServiceClient, ServiceError
        if self.proc.poll() is None:
            if self.host is not None:
                try:
                    with ServiceClient(self.host, self.port,
                                       timeout=5.0) as client:
                        client.shutdown_server()
                except (OSError, ServiceError):
                    pass  # terminated below
            else:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _ServerInProcess:
    """The service on a thread of this process, so its functions can be traced."""

    def __init__(self, workers: int) -> None:
        from repro.service.server import ServerThread
        self.thread = ServerThread(port=0, workers=workers).start()
        self.host, self.port = self.thread.host, self.thread.port

    @property
    def catalog(self):
        return self.thread.service.catalog

    def stop(self) -> None:
        self.thread.stop()


class ServiceLoad:
    """The load generator: the op mix and the two load shapes.

    Op ``i`` uses query point ``i mod query_pool``; whether it is a kNN or
    a range query is fixed per pool slot, so the mix is 9:1 and seeded.
    Answers are kept by op id and checked after the timed phases.
    """

    def __init__(self, cfg: ServiceConfig, points: np.ndarray, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.cfg = cfg
        self.points = points
        self.queries = rng.uniform(0.0, 1.0, size=(cfg.query_pool, 3))
        self.is_knn = rng.random(cfg.query_pool) < cfg.knn_share
        self.answers: Dict[int, object] = {}
        self.errors = 0
        self._lock = threading.Lock()
        self._next_op = 0
        self.tracer: Optional[Tracer] = None

    def take_ids(self, n: int = 1) -> int:
        """Reserve ``n`` consecutive op ids; returns the first."""
        with self._lock:
            first = self._next_op
            self._next_op += n
        return first

    def send(self, client, op: int) -> bool:
        """One op; stores the decoded answer, returns False on an error."""
        from repro.service.client import ServiceError
        slot = op % self.cfg.query_pool
        query = self.queries[slot:slot + 1]
        if self.tracer is not None:
            self.tracer.set_thread_op(op)
        try:
            if self.is_knn[slot]:
                indices, distances = client.knn(DATASET, query, self.cfg.k)
                answer = ("knn", indices[0], distances[0])
            else:
                table = client.range_query(DATASET, query, self.cfg.eps)
                answer = ("range", table.neighbors_of(0))
        except (ServiceError, OSError):
            with self._lock:
                self.errors += 1
            return False
        with self._lock:
            self.answers[op] = answer
        return True

    def open_loop(self, clients, seconds: float) -> Dict[str, np.ndarray]:
        """Sends at a fixed schedule, op ``j`` on connection ``j mod n``.

        Latency runs from the op's scheduled send time to its decoded
        answer, so a stalled connection charges its wait to the ops queued
        behind it; ``lag`` is how late each send left.
        """
        n_ops = max(1, int(self.cfg.rate_ops_s * seconds))
        first = self.take_ids(n_ops)
        start = time.perf_counter() + 0.01
        due = start + np.arange(n_ops) / self.cfg.rate_ops_s
        latency = np.zeros(n_ops)
        lag = np.zeros(n_ops)

        def connection(c: int) -> None:
            for j in range(c, n_ops, len(clients)):
                wait = due[j] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                lag[j] = time.perf_counter() - due[j]
                self.send(clients[c], first + j)
                latency[j] = time.perf_counter() - due[j]

        _run_threads(connection, len(clients))
        return {"latency": latency, "lag": lag}

    def closed_loop(self, clients, seconds: float) -> tuple[int, float]:
        """Every connection sends back to back; returns (completed, wall)."""
        completed = [0] * len(clients)
        start = time.perf_counter()
        deadline = start + seconds

        def connection(c: int) -> None:
            while time.perf_counter() < deadline:
                completed[c] += self.send(clients[c], self.take_ids())

        _run_threads(connection, len(clients))
        return sum(completed), time.perf_counter() - start

    def cpu_windows(self, clients, seconds: float, speed: Reference,
                    pids: List[int]) -> tuple[List[float], int, float]:
        """The closed loop in windows of ``WINDOW_S``.

        Returns each window's scaled CPU time per completed op, summed over
        this process and ``pids``, then the completed ops and their wall
        time (the reference samples between windows left out).
        """
        costs: List[float] = []
        completed, wall = 0, 0.0
        deadline = time.perf_counter() + seconds
        while not costs or time.perf_counter() < deadline:
            before = cpu_s(pids)
            done, elapsed = self.closed_loop(clients, WINDOW_S)
            costs.append(speed.scale((cpu_s(pids) - before) / max(done, 1)))
            completed, wall = completed + done, wall + elapsed
        return costs, completed, wall

    def check(self) -> int:
        """Wrong answers among those received."""
        wrong = 0
        for op, answer in self.answers.items():
            query = self.queries[op % self.cfg.query_pool]
            if answer[0] == "knn":
                ok = checks.knn_answer_ok(self.points, query, self.cfg.k,
                                          answer[1], answer[2])
            else:
                ok = checks.range_answer_ok(self.points, query, self.cfg.eps,
                                            answer[1])
            wrong += 0 if ok else 1
        return wrong


def _run_threads(target: Callable[[int], None], n: int) -> None:
    errors: List[BaseException] = []

    def guarded(i: int) -> None:
        try:
            target(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _start_service(cfg: ServiceConfig, load: ServiceLoad, in_process: bool):
    """Spawn the server, register the dataset, wait for a first answer."""
    from repro.service.client import ServiceClient
    server = (_ServerInProcess if in_process else _ServerProcess)(cfg.workers)
    try:
        with ServiceClient(server.host, server.port) as client:
            client.register(DATASET, load.points)
            client.range_query(DATASET, load.queries[:1], cfg.eps)
    except BaseException:
        server.stop()
        raise
    return server


def run_service(cfg: ServiceConfig, seed: int, seconds: float,
                trace: bool) -> RunResult:
    """Single-point range and kNN queries from one client over two connections.

    ``setup_s`` is the CPU time of this process and the server from server
    spawn to the first answered query; the run sets up ``setup_repeats``
    times and keeps the last server.  ``op_cpu_p50_s`` is the median over
    the closed loop's windows; the open loop gives the wall latencies of
    the report.
    """
    from repro.data.synthetic import uniform_dataset
    from repro.service.client import ServiceClient

    points = uniform_dataset(cfg.n_points, 3, seed=seed, low=0.0, high=1.0)
    load = ServiceLoad(cfg, points, seed)
    speed = Reference()
    setups: List[float] = []
    server = None
    try:
        for _ in range(1 if trace else cfg.setup_repeats):
            if server is not None:
                server.stop()
                server = None
            start = cpu_s()
            server = _start_service(cfg, load, in_process=trace)
            if not trace:
                setups.append(speed.scale(cpu_s([server.proc.pid]) - start))
        clients = [ServiceClient(server.host, server.port)
                   for _ in range(cfg.connections)]
        try:
            if trace:
                return _traced_service(cfg, load, server, clients, seconds)
            opened = load.open_loop(clients, seconds * cfg.open_share)
            costs, completed, wall = load.cpu_windows(
                clients, seconds * (1.0 - cfg.open_share), speed,
                [server.proc.pid])
            rss = peak_rss_mib() + peak_rss_mib(server.proc.pid)
        finally:
            for client in clients:
                client.close()
    finally:
        if server is not None:
            server.stop()
    latency = opened["latency"]
    attempted = len(load.answers) + load.errors
    metrics = end_to_end(costs, setups, rss)
    failed = load.errors + load.check()
    info = {"open_ops": int(latency.shape[0]), "closed_ops": completed,
            "rate_ops_s": cfg.rate_ops_s,
            "wall_p50_s": float(np.percentile(latency, 50)),
            "wall_p90_s": float(np.percentile(latency, 90)),
            "throughput_ops_s": completed / wall,
            "lag_p50_s": float(np.percentile(opened["lag"], 50)),
            "reference_p50_s": float(np.median(speed.samples))}
    return RunResult(metrics, attempted, failed, info)


def _traced_service(cfg: ServiceConfig, load: ServiceLoad, server, clients,
                    seconds: float) -> RunResult:
    """Untraced open loop, then traced open and closed loops.

    The overhead compares the two open-loop halves; the closed loop is
    traced too because request fusion only happens under that load.
    """
    from repro.service.client import ServiceClient

    def service_counters() -> dict:
        with ServiceClient(server.host, server.port) as client:
            return client.stats()["service"]

    session = server.catalog.get(DATASET)
    open_half = seconds * cfg.open_share / 2
    base = load.open_loop(clients, open_half)
    before = service_counters()
    hits, misses = session.stats.index_hits, session.stats.index_misses
    first_traced = load.take_ids(0)
    tracer = Tracer()
    load.tracer = tracer
    install_layer_spans(tracer)
    try:
        traced = load.open_loop(clients, open_half)
        load.closed_loop(clients, seconds * (1.0 - cfg.open_share))
    finally:
        tracer.unwrap_all()
        load.tracer = None
    n_traced = load.take_ids(0) - first_traced
    after = service_counters()
    hits = session.stats.index_hits - hits
    lookups = hits + session.stats.index_misses - misses
    fused = after["fused_queries"] - before["fused_queries"]
    points = after["point_queries"] - before["point_queries"]
    batches = after["fusion_batches"] - before["fusion_batches"]
    metrics = layer_metrics(tracer.spans, n_traced)
    metrics.update({
        "session.index_hit_frac": hits / lookups if lookups else 0.0,
        "service.fusion_frac": fused / points if points else 0.0,
        "service.fused_batch_mean": fused / batches if batches else 0.0,
        "loadgen.lag_p50_s": float(np.percentile(traced["lag"], 50)),
        "loadgen.lag_max_s": float(np.max(traced["lag"])),
        "merge.counter_excess": 0.0,
        "trace.overhead_s": float(np.median(traced["latency"])
                                  - np.median(base["latency"])),
    })
    attempted = len(load.answers) + load.errors
    failed = load.errors + load.check()
    info = {"open_ops": int(base["latency"].shape[0]), "traced_ops": n_traced,
            "rate_ops_s": cfg.rate_ops_s}
    return RunResult(metrics, attempted, failed, info, tracer)


# --------------------------------------------------------------------------
# distributed self-join
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class DistributedConfig:
    n_points: int = 100_000
    scale: float = 10.0
    eps: float = 0.5
    workers: int = 2
    setup_repeats: int = 3


def run_distributed(cfg: DistributedConfig, seed: int, seconds: float,
                    trace: bool) -> RunResult:
    """Warm self-joins through an ``EngineSession`` on 2 TCP workers.

    ``setup_s`` is pool spawn, attach and the first (cold) op; the run sets
    up ``setup_repeats`` times and keeps the last pool.  CPU times sum this
    process and the workers.  Every op must be bit-identical to a local
    ``vectorized`` run made during set-up.
    """
    from repro.data.synthetic import exponential_dataset
    from repro.distributed.backend import DistributedBackend, LocalWorkerPool
    from repro.engine import EngineSession, Query, run_query

    points = exponential_dataset(cfg.n_points, 3, scale=cfg.scale, seed=seed)
    reference = run_query(Query.self_join(points, cfg.eps),
                          backend="vectorized").neighbor_table
    reference_ok = checks.selfjoin_rows_match(
        points, cfg.eps, reference,
        checks.sample_rows(cfg.n_points, CHECK_ROWS, seed))
    tally = Tally()
    tracer = Tracer() if trace else None
    speed = Reference()
    costs: List[float] = []
    deployment: list = []

    def teardown() -> None:
        while deployment:
            session, backend, pool = deployment.pop()
            try:
                session.close()
                backend.shutdown()
            finally:
                pool.shutdown()

    def worker_pids() -> List[int]:
        return [proc.pid for proc in deployment[-1][2].processes]

    def op():
        session = deployment[-1][0]
        start, cpu = time.perf_counter(), cpu_s(worker_pids())
        result = session.self_join(cfg.eps)
        table = result.neighbor_table
        return (time.perf_counter() - start, cpu_s(worker_pids()) - cpu,
                result, table)

    def step(op_id: int) -> float:
        if tracer is not None:
            tracer.op = op_id
        elapsed, cpu, result, table = op()
        if tracer is None:
            costs.append(speed.scale(cpu))
        tally.record(reference_ok and table.same_contents_as(reference),
                     result.stats.result_pairs - table.num_pairs)
        return elapsed

    setups: List[float] = []
    try:
        for _ in range(1 if trace else cfg.setup_repeats):
            teardown()
            start = cpu_s()
            pool = LocalWorkerPool(cfg.workers)
            try:
                backend = DistributedBackend(
                    *[f"{host}:{port}" for host, port in pool.addresses()])
                session = EngineSession(points, backend=backend)
            except BaseException:
                pool.shutdown()
                raise
            deployment.append((session, backend, pool))
            session.open()
            _, _, _, cold = op()
            # The workers are new, so their whole CPU time is set-up.
            setups.append(speed.scale(cpu_s(worker_pids()) - start))
            reference_ok = reference_ok and cold.same_contents_as(reference)
        info = {"pairs": reference.num_pairs}
        if trace:
            n_traced, overhead = traced_closed_loop(step, seconds, tracer)
            hit_frac = _session_hit_frac(deployment[-1][0])
        else:
            latencies, wall = closed_loop(step, seconds)
            rss = peak_rss_mib() + sum(peak_rss_mib(proc.pid)
                                       for proc in deployment[-1][2].processes)
    finally:
        teardown()
    if trace:
        metrics = layer_metrics(tracer.spans, n_traced)
        metrics.update(_idle_layers(), **{
            "session.index_hit_frac": hit_frac,
            "trace.overhead_s": overhead,
            "merge.counter_excess": float(np.mean(tally.counter_excess))})
        info.update(ops=tally.attempted, traced_ops=n_traced)
        return RunResult(metrics, tally.attempted, tally.failed, info, tracer)
    metrics = end_to_end(costs, setups, rss)
    info.update(wall_figures(latencies, wall), ops=len(latencies),
                reference_p50_s=float(np.median(speed.samples)),
                counter_excess=float(np.mean(tally.counter_excess)))
    return RunResult(metrics, tally.attempted, tally.failed, info)


def _session_hit_frac(session) -> float:
    lookups = session.stats.index_hits + session.stats.index_misses
    return session.stats.index_hits / lookups if lookups else 0.0


#: Workload name -> (function, config).  Sizes are fixed; only the seed varies.
WORKLOADS = {
    "selfjoin_lowdim": (run_selfjoin, SelfJoinConfig(100_000, 3, 0.025)),
    "selfjoin_highdim": (run_selfjoin, SelfJoinConfig(2_000, 6, 0.25)),
    "service_points": (run_service, ServiceConfig()),
    "selfjoin_distributed": (run_distributed, DistributedConfig()),
}
