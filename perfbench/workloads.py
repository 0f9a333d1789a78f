"""The benchmark's three workloads.

Each workload is a class with ``setup()`` (generate inputs, build the
archive, start servers, warm up), ``round()`` (one whole pass of fixed
operations, timed by ``run.py``), ``counters()`` (program counters
sampled before and after the timed phase) and ``close()``.  Every input
is generated from the ``--seed`` argument; the program receives only
those generated arrays and the seeded request sequences.

* ``analyst_local``: one analyst, in-process ``QoIRetriever`` sessions
  over ``Archive.load(lazy=True)`` on a sharded disk archive (the
  ``repro retrieve`` path).  Decode, estimate and assign carry the time.
* ``remote_fleet``: two closed-loop JSON-lines connections to a
  ``RetrievalServer`` whose service reads a ``cluster://`` store over two
  ``HTTPFragmentServer`` nodes on localhost, with a service cache of a
  quarter of the archive and Zipf-skewed timestep visits.  Transport,
  fan-out, cache and planner carry the time.
* ``ingest_live``: a live ``RetrievalService`` over a sharded disk store
  (``fsync=commit``): each step ingests a timestep and then answers on
  it cold; every fourth step also re-ingests an older timestep with new
  fields and compacts.  Refactor, WAL commit and compaction carry the
  time.
"""

from __future__ import annotations

import os
import queue
import shutil
import socket
import threading
import time

import numpy as np

import oracle as orc

from repro.core import qois
from repro.core.retrieval import QoIRequest, QoIRetriever
from repro.data import generators
from repro.service import RetrievalServer, RetrievalService, ServiceClient
from repro.storage import Archive, HTTPFragmentServer, ShardedDiskStore
from repro.storage.cluster import ClusterFragmentStore
from repro.storage.metadata import DatasetManifest
from repro.storage.store import FragmentStore
from repro.utils.fragment_keys import timestep_variable

GE_FIELDS = ("velocity_x", "velocity_y", "velocity_z", "pressure", "density")


def dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, f))
            except OSError:
                pass
    return total


def sub_seed(seed: int, *parts: int) -> int:
    """A child seed for one generated input, stable across runs."""
    return int(np.random.SeedSequence([int(seed), *map(int, parts)]).generate_state(1)[0])


class Recorder:
    """Thread-safe tally of operations, answer latencies and oracle verdicts."""

    def __init__(self):
        self._lock = threading.Lock()
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []  # oracle rejections (each also a failure)
        self.errors: list = []  # operations that raised
        self.rounds = 0  # retrieval rounds the program reports
        self.consumed_bytes = 0  # bytes the readers consumed

    def answer(self, seconds: float, verdicts, rounds: int = 0) -> None:
        bad = [v for v in verdicts if v is not None]
        with self._lock:
            self.attempted += 1
            self.latencies.append(seconds)
            self.rounds += int(rounds)
            if bad:
                self.failed += 1
                self.wrong.extend(bad)

    def done(self) -> None:
        """One operation other than an answer that succeeded."""
        with self._lock:
            self.attempted += 1

    def error(self, what: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.errors.append(what)

    def consumed(self, nbytes: int) -> None:
        with self._lock:
            self.consumed_bytes += int(nbytes)


class _Null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class Workload:
    """What ``run.py`` needs of a workload besides its own set-up and rounds."""

    name = ""
    #: Span layer of the store the service (or archive) reads through.
    backing_layer = "storage.store"

    def __init__(self, seed: int, workdir: str, rec: Recorder):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.ingest_rates: list = []  # MB/s of each RetrievalService.ingest call

    @staticmethod
    def trace_answer():
        """Context around one answer; the traced run replaces it."""
        return _NULL


def _check_result(oracle, result, requests) -> list:
    return [
        oracle.check(r.name, result.data, float(result.estimated_errors[r.name]), r.tolerance)
        for r in requests
    ]


# ---------------------------------------------------------------------------
# analyst_local
# ---------------------------------------------------------------------------

ANALYST_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
ANALYST_GE_COPIES = 5
ANALYST_GE_NODES = 5000
ANALYST_NYX_SHAPE = (32, 32, 32)
ANALYST_HURRICANE_SHAPE = (10, 50, 50)
COPY_BATCH = 512  # fragments per put_many when copying the archive to disk


def _analyst_datasets(seed: int) -> list:
    """``[(fields, [QoISpec])]`` — four Table III datasets, scaled down.

    GE-small appears as several independently seeded blocks, each its
    own session: the rounds a rung needs depend on the data, and pooling
    blocks keeps one seed's draw from setting the tail.
    """
    s3d_all = generators.s3d(shape=(48, 40, 32), seed=sub_seed(seed, 2))
    nyx = generators.nyx(shape=ANALYST_NYX_SHAPE, seed=sub_seed(seed, 3))
    hurricane = generators.hurricane(shape=ANALYST_HURRICANE_SHAPE, seed=sub_seed(seed, 4))

    def named(prefix, fields):
        return {f"{prefix}.{k}": v for k, v in fields.items()}

    out = []
    for b in range(ANALYST_GE_COPIES):
        ge = generators.ge_cfd(num_nodes=ANALYST_GE_NODES, seed=sub_seed(seed, 1, b))
        g = [f"ge{b}.{f}" for f in GE_FIELDS]
        out.append((named(f"ge{b}", ge), [
            orc.QoISpec("VTOT", "vtot", tuple(g[:3])),
            orc.QoISpec("T", "temperature", tuple(g[3:])),
            orc.QoISpec("C", "sound_speed", tuple(g[3:])),
            orc.QoISpec("Mach", "mach", tuple(g)),
            orc.QoISpec("PT", "total_pressure", tuple(g)),
            orc.QoISpec("mu", "viscosity", tuple(g[3:])),
        ]))
    products = (("x0", "x1"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"))
    s3d = {k: s3d_all[k] for k in sorted({s for p in products for s in p})}
    s3d_specs = [
        orc.QoISpec(f"{a}*{b}", "product", (f"s3d.{a}", f"s3d.{b}")) for a, b in products
    ]
    vel = ("velocity_x", "velocity_y", "velocity_z")
    return out + [
        (named("s3d", s3d), s3d_specs),
        (named("nyx", nyx), [orc.QoISpec("VTOT", "vtot", tuple(f"nyx.{v}" for v in vel))]),
        (named("hurricane", hurricane),
         [orc.QoISpec("VTOT", "vtot", tuple(f"hurricane.{v}" for v in vel))]),
    ]


def program_qoi(spec: orc.QoISpec):
    """The program's expression tree for one benchmark QoI spec."""
    f = spec.fields
    if spec.formula == "vtot":
        return qois.total_velocity(*f)
    if spec.formula == "temperature":
        return qois.temperature(*f)
    if spec.formula == "sound_speed":
        return qois.speed_of_sound(*f)
    if spec.formula == "mach":
        return qois.mach_number(*f)
    if spec.formula == "total_pressure":
        return qois.total_pressure(*f)
    if spec.formula == "viscosity":
        return qois.viscosity(*f)
    if spec.formula == "product":
        return qois.molar_product(*f)
    raise ValueError(spec.formula)


class AnalystLocal(Workload):
    """One analyst in a closed loop over a local sharded disk archive."""

    name = "analyst_local"

    def setup(self, index: int) -> None:
        self.root = os.path.join(self.workdir, f"archive{index}")
        datasets = _analyst_datasets(self.seed)
        self.datasets = []
        self.raw_bytes = 0
        # ingest into memory, then copy the archive to disk in batches
        # (what ``repro snapshot`` does): the ingest rate then measures
        # refactor and encode, not this box's fsync latency, which
        # ingest_live covers
        staging = FragmentStore()
        service = RetrievalService(staging)
        for fields, specs in datasets:
            nbytes = sum(v.nbytes for v in fields.values())
            start = time.perf_counter()
            service.ingest(fields)
            self.ingest_rates.append(nbytes / 1e6 / (time.perf_counter() - start))
            self.raw_bytes += nbytes
            oracle = orc.Oracle(fields, specs)
            requests = {
                tol: [QoIRequest(s.name, program_qoi(s), tol, oracle.ranges[s.name]) for s in specs]
                for tol in ANALYST_LADDER
            }
            variables = sorted({f for s in specs for f in s.fields})
            self.datasets.append((oracle, requests, variables))
        service.close()
        disk = ShardedDiskStore(self.root)
        keys = staging.keys()
        for i in range(0, len(keys), COPY_BATCH):
            batch = keys[i:i + COPY_BATCH]
            payloads = staging.get_many(batch)
            disk.put_many([(v, seg, payloads[(v, seg)]) for v, seg in batch])
        disk.close()
        self.store = ShardedDiskStore(self.root)
        self.ranges = DatasetManifest.load_from(self.store).value_ranges()
        self.round(warmup=True)

    def _session(self, oracle, requests, variables, warmup: bool) -> None:
        archive = Archive(self.store)
        lazy = {v: archive.load(v, lazy=True) for v in variables}
        session = QoIRetriever(lazy, {v: self.ranges[v] for v in variables}).session()
        for tol in ANALYST_LADDER:
            reqs = requests[tol]
            start = time.perf_counter()
            with self.trace_answer():
                result = session.retrieve(reqs)
            elapsed = time.perf_counter() - start
            if not warmup:
                self.rec.answer(elapsed, _check_result(oracle, result, reqs), result.rounds)
        if not warmup:
            self.rec.consumed(session.bytes_retrieved())

    def round(self, warmup: bool = False) -> None:
        for oracle, requests, variables in self.datasets:
            self._session(oracle, requests, variables, warmup)

    def counters(self) -> dict:
        return {
            "store_round_trips": self.store.round_trips,
            "store_bytes_read": self.store.bytes_read,
        }

    def stored_bytes(self) -> int:
        return dir_bytes(self.root)

    def close(self) -> None:
        self.store.close()


# ---------------------------------------------------------------------------
# remote_fleet
# ---------------------------------------------------------------------------

FLEET_TIMESTEPS = 16
FLEET_NODES = 6000
FLEET_CLIENTS = 2
FLEET_VISITS_PER_PASS = 24
FLEET_METHOD = "psz3_delta"


def zipf_schedule(timesteps: int, visits: int) -> list:
    """One pass of timestep *ranks*, Zipf(1)-skewed and evenly interleaved.

    Visits per rank are Zipf weights rounded by largest remainder; a
    smooth weighted round robin spreads each rank's visits across the
    pass.  The seed picks which timestep holds which rank, so the
    sequence the program sees is seeded while every seed gets a pass of
    the same shape (hot and cold visits in the same proportions and
    spacing).
    """
    weights = np.array([1.0 / (k + 1) for k in range(timesteps)])
    exact = visits * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    for k in np.argsort(-(exact - counts), kind="stable")[: visits - counts.sum()]:
        counts[k] += 1
    credit = np.zeros(timesteps)
    order = []
    for _ in range(visits):
        credit += counts
        rank = int(np.argmax(credit))
        credit[rank] -= visits
        order.append(rank)
    return order


FLEET_LADDER = (("vtot", 1e-2), ("mach", 1e-2), ("vtot", 1e-4), ("mach", 1e-4))


class RemoteFleet(Workload):
    """Two JSON-lines clients against a cluster of two HTTP fragment nodes."""

    name = "remote_fleet"
    backing_layer = "storage.cluster"

    def __init__(self, seed: int, workdir: str, rec: Recorder):
        super().__init__(seed, workdir, rec)
        self._live = False

    def setup(self, index: int) -> None:
        rng = np.random.default_rng(sub_seed(self.seed, 10))
        self.oracles = {}
        nodes = [FragmentStore(), FragmentStore()]
        builder = RetrievalService(ClusterFragmentStore(nodes, replicas=2))
        self.raw_bytes = 0
        for t in range(FLEET_TIMESTEPS):
            fields = generators.ge_cfd(num_nodes=FLEET_NODES, seed=sub_seed(self.seed, 11, t))
            names = [timestep_variable(f, t) for f in GE_FIELDS]
            q = {timestep_variable(f, t): v for f, v in fields.items()}
            self.oracles[t] = orc.Oracle(q, [
                orc.QoISpec("vtot", "vtot", tuple(names[:3])),
                orc.QoISpec("mach", "mach", tuple(names)),
            ])
            self.raw_bytes += sum(v.nbytes for v in fields.values())
            start = time.perf_counter()
            builder.ingest(fields, method=FLEET_METHOD, timestep=t)
            self.ingest_rates.append(
                sum(v.nbytes for v in fields.values()) / 1e6 / (time.perf_counter() - start))
        # the fleet's working set: bytes one ladder reads, summed over
        # every timestep; the service cache holds a quarter of it, so the
        # steady state keeps missing and evicting
        with builder.open_session() as session:
            for t, oracle in self.oracles.items():
                for qoi, tol in FLEET_LADDER:
                    spec = oracle.specs[qoi]
                    session.retrieve([QoIRequest(qoi, program_qoi(spec), tol, oracle.ranges[qoi])])
        self.working_set = builder.stats().store_bytes_read
        builder.close()
        self.nodes = nodes
        self.http = [HTTPFragmentServer(n).start() for n in nodes]
        hosts = ",".join(f"{h}:{p}" for h, p in (s.address for s in self.http))
        self.cache_bytes = self.working_set // 4
        self.service = RetrievalService.open(
            f"cluster://{hosts}?replicas=2", cache_bytes=self.cache_bytes
        )
        self.server = RetrievalServer(self.service)
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-jsonl", daemon=True
        )
        self._server_thread.start()
        # a bound socket that never listens: connecting to it is refused
        self._dead = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._dead.bind(("127.0.0.1", 0))
        self.outage_url = (
            f"cluster://{self.http[0].address[0]}:{self.http[0].address[1]},"
            f"127.0.0.1:{self._dead.getsockname()[1]}?replicas=2&timeout=5"
        )
        # which timestep holds which popularity rank is seeded
        order = rng.permutation(FLEET_TIMESTEPS)
        self.visits = [int(order[r]) for r in zipf_schedule(FLEET_TIMESTEPS, FLEET_VISITS_PER_PASS)]
        self._live = True
        self.round(warmup=True)

    def _visit(self, t: int, warmup: bool) -> None:
        host, port = self.server.address
        oracle = self.oracles[t]
        with ServiceClient(host, port) as client:
            last = None
            for qoi, tol in FLEET_LADDER:
                spec = oracle.specs[qoi]
                start = time.perf_counter()
                with self.trace_answer():
                    response = client.retrieve(
                        qoi, list(spec.fields), tol, qoi_range=oracle.ranges[qoi],
                        include_data=True,
                    )
                elapsed = time.perf_counter() - start
                last = response
                if not warmup:
                    verdict = oracle.check(
                        qoi, response["data"], response["estimated_error"], tol
                    )
                    self.rec.answer(elapsed, [verdict], response["rounds"])
            if not warmup and last is not None:
                self.rec.consumed(last["session_bytes"])

    def outage_op(self) -> str | None:
        """Open a service while one replica's node refuses connections."""
        service = None
        try:
            service = RetrievalService.open(self.outage_url, cache_bytes=self.cache_bytes)
            oracle = self.oracles[0]
            spec = oracle.specs["vtot"]
            req = QoIRequest("vtot", program_qoi(spec), 1e-2, oracle.ranges["vtot"])
            with service.open_session() as session:
                result = session.retrieve([req])
            bad = _check_result(oracle, result, [req])[0]
            return None if bad is None else f"open_during_outage: {bad}"
        except Exception as exc:  # counted as the known failing operation
            return f"open_during_outage: {type(exc).__name__}: {exc}"
        finally:
            if service is not None:
                service.close()

    def round(self, warmup: bool = False) -> None:
        verdict = self.outage_op()
        if not warmup:
            if verdict is None:
                self.rec.done()
            else:
                self.rec.error(verdict)
        visits = queue.SimpleQueue()
        for t in self.visits:
            visits.put(t)

        def client() -> None:
            while True:
                try:
                    t = visits.get_nowait()
                except queue.Empty:
                    return
                try:
                    self._visit(t, warmup)
                except Exception as exc:  # a failed visit fails its answers
                    for _ in FLEET_LADDER:
                        self.rec.error(f"visit t={t}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client, name=f"perfbench-client{i}")
            for i in range(FLEET_CLIENTS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    def counters(self) -> dict:
        stats = self.service.stats()
        cluster = stats.cluster
        return {
            "store_round_trips": stats.store_round_trips,
            "store_bytes_read": stats.store_bytes_read,
            "cache_hits": stats.cache.hits,
            "cache_misses": stats.cache.misses,
            "cache_evictions": stats.cache.evictions,
            "plan_hits": stats.planner.plan_cache_hits,
            "plan_misses": stats.planner.plan_cache_misses,
            "merged_rounds": stats.planner.merged_rounds,
            "retries": stats.resilience.retries if stats.resilience else 0,
            "shard_trips": sum(n.requests for n in cluster.per_node.values()),
        }

    def stored_bytes(self) -> int:
        return sum(n.nbytes() for n in self.nodes)

    def close(self) -> None:
        if not self._live:
            return
        self._live = False
        self.server.shutdown()
        self.server.server_close()
        self._server_thread.join(timeout=30)
        self.service.close()
        for s in self.http:
            s.stop()
        self._dead.close()


# ---------------------------------------------------------------------------
# ingest_live
# ---------------------------------------------------------------------------

INGEST_NODES = 10000
INGEST_METHOD = "psz3_delta"
INGEST_CYCLE = 4  # steps per cycle; the last re-ingests and compacts
INGEST_LADDER = (1e-2, 1e-3, 1e-4)


class IngestLive(Workload):
    """Ingest-then-answer steps on a live service over a sharded disk store."""

    name = "ingest_live"

    def __init__(self, seed: int, workdir: str, rec: Recorder):
        super().__init__(seed, workdir, rec)
        self.service = None

    def setup(self, index: int) -> None:
        self.root = os.path.join(self.workdir, f"live{index}")
        self.service = RetrievalService(ShardedDiskStore(self.root))
        self.oracles = {}
        self.versions = {}
        self.step = 0
        self.raw_step = 0
        self.raw_ingested = 0
        self.ingest_rates.clear()
        self.compactions = []  # (seconds, CompactionReport) per compact()
        self._ingest(0)
        self._ingest(1)
        self.step = 2
        self.round(warmup=True)

    @property
    def raw_bytes(self) -> int:
        return self.raw_step * len(self.oracles)

    def _ingest(self, t: int) -> None:
        version = self.versions.get(t, -1) + 1
        fields = generators.ge_cfd(num_nodes=INGEST_NODES, seed=sub_seed(self.seed, 20, t, version))
        names = [timestep_variable(f, t) for f in GE_FIELDS]
        q = {timestep_variable(f, t): v for f, v in fields.items()}
        oracle = orc.Oracle(q, [
            orc.QoISpec("VTOT", "vtot", tuple(names[:3])),
            orc.QoISpec("T", "temperature", tuple(names[3:])),
        ])
        nbytes = sum(v.nbytes for v in fields.values())
        start = time.perf_counter()
        self.service.ingest(fields, method=INGEST_METHOD, timestep=t)
        self.ingest_rates.append(nbytes / 1e6 / (time.perf_counter() - start))
        self.raw_step = nbytes
        self.raw_ingested += nbytes
        self.versions[t] = version
        self.oracles[t] = oracle

    def _read(self, t: int, warmup: bool) -> None:
        oracle = self.oracles[t]
        requests = {
            tol: [QoIRequest(s.name, program_qoi(s), tol, oracle.ranges[s.name])
                  for s in oracle.specs.values()]
            for tol in INGEST_LADDER
        }
        with self.service.open_session() as session:
            for tol in INGEST_LADDER:
                reqs = requests[tol]
                start = time.perf_counter()
                with self.trace_answer():
                    result = session.retrieve(reqs)
                elapsed = time.perf_counter() - start
                if not warmup:
                    self.rec.answer(elapsed, _check_result(oracle, result, reqs), result.rounds)
            if not warmup:
                self.rec.consumed(session.bytes_retrieved())

    def round(self, warmup: bool = False) -> None:
        """One cycle: INGEST_CYCLE steps, the last re-ingesting and compacting.

        Each step ingests a new timestep and then answers on it; the last
        step of a cycle also re-ingests the timestep two back with new
        fields, compacts, and answers on the re-ingested timestep.
        """
        for j in range(INGEST_CYCLE):
            s = self.step
            self._ingest(s)
            reads = [s]
            if j == INGEST_CYCLE - 1:
                self._ingest(s - 2)
                start = time.perf_counter()
                report = self.service.compact()
                self.compactions.append((time.perf_counter() - start, report))
                reads.append(s - 2)
            for t in reads:
                try:
                    self._read(t, warmup)
                except Exception as exc:  # a failed read fails its answers
                    for _ in INGEST_LADDER:
                        self.rec.error(f"read t={t}: {type(exc).__name__}: {exc}")
            self.step += 1

    def counters(self) -> dict:
        stats = self.service.stats()
        return {
            "store_round_trips": stats.store_round_trips,
            "store_bytes_read": stats.store_bytes_read,
            "cache_hits": stats.cache.hits,
            "cache_misses": stats.cache.misses,
            "cache_evictions": stats.cache.evictions,
            "plan_hits": stats.planner.plan_cache_hits,
            "plan_misses": stats.planner.plan_cache_misses,
            "merged_rounds": stats.planner.merged_rounds,
            "log_bytes": stats.durability.log_bytes if stats.durability else 0,
        }

    def stored_bytes(self) -> int:
        return dir_bytes(self.root)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (AnalystLocal, RemoteFleet, IngestLive)}


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
