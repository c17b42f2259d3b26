"""The benchmark's workloads: ``golden``, ``abr-fleet`` and ``record-path``.

Each workload is a closed batch: :meth:`Workload.setup` builds all of
its input from the workload seed up front, and :meth:`Workload.run_pass`
runs the measured flow over that input once, through the program's
public entry points.  Nothing arrives on a schedule.

A pass returns a :class:`Pass`: the host seconds of each step and of
each play, raw and corrected for the host's slowdown (``host.py``),
and the digests the output checks compare.  The runner repeats passes
to fill ``--seconds`` and reports medians over them.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gc
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro import RngFactory, Study, StudyConfig
from repro.analysis.streaming import StudyAggregates, user_base_ranks
from repro.core.realtracer import RealTracer
from repro.core.records import StudyDataset
from repro.core.spill import (
    ShardSpill,
    SpilledDataset,
    SpillWriter,
    iter_merged_rows,
    write_rows_csv,
)
from repro.experiments.base import ExperimentContext, all_figures
from repro.experiments.goldens import (
    GOLDEN_SCALE,
    GOLDEN_SEED,
    canonical_json,
    figure_payload,
    read_golden,
    read_meta,
)
from repro.runtime import RuntimeConfig, run_study
from repro.runtime.scheduler import plan_shards
from repro.sweep.cache import StudyCache
from repro.world.population import build_population
from repro.world.scenarios import configured, get_scenario

from host import HostSpeed
from measure import du_bytes, median, median_time, sha256_file, sha256_text

#: Least repeats, and seconds, of the figure renders inside one pass.
FIGURE_REPEATS = 3
FIGURE_WINDOW_S = 2.0

#: Record-path users between two host probes.
USERS_PER_PROBE = 8

#: ``abr-fleet``: study scale (most users play one or two clips) and
#: pool size (one worker per usable CPU).
ABR_SCALE = 0.03
ABR_WORKERS = len(os.sched_getaffinity(0))

#: ``record-path``: spill shards the users are planned into.
RECORD_SHARDS = 8

#: fig01 simulates one timeline play of the population's first healthy
#: broadband user instead of reading records.  On a population the
#: seed synthesizes, its cost is that user's path (up to tens of
#: seconds), so the aggregates-backed workloads render the 28 record
#: figures only.
TIMELINE_FIGURE = "fig01"


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Steps:
    """The step timings of one pass, raw and corrected for the host's
    slowdown (see ``host.py``)."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.raw: dict[str, float] = {}
        self.corrected: dict[str, float] = {}

    def add(self, **seconds: float) -> None:
        """Steps corrected by the probes taken since the previous one."""
        slowdown = self.host.take()
        for name, value in seconds.items():
            self.raw[name] = value
            self.corrected[name] = value / slowdown

    def add_pair(self, name: str, raw: float, corrected: float) -> None:
        """A step its own probes already corrected."""
        self.raw[name] = raw
        self.corrected[name] = corrected
        self.host.samples = []


@dataclass
class Pass:
    """One run of a workload's measured flow."""

    steps: Steps
    #: Host seconds per play (per record on ``record-path``), raw and
    #: corrected.
    play_s: list[float]
    play_corrected: list[float]
    #: Plays or records the pass attempted, and how many it delivered.
    attempted: int
    delivered: int
    csv_sha256: str
    figures_sha256: str
    #: Figure id -> canonical JSON payload.
    payloads: dict[str, str]
    #: Figure id -> median render seconds.
    figure_s: dict[str, float]
    #: Pass-level output checks (name -> passed).
    checks: dict[str, bool] = field(default_factory=dict)
    #: Extra facts the per-layer rollup reads (records, manifest...).
    facts: dict = field(default_factory=dict)

    def step(self, name: str, corrected: bool = True) -> float:
        return (self.steps.corrected if corrected else self.steps.raw)[name]

    def wall_s(self, corrected: bool = True) -> float:
        return sum(self.step(name, corrected) for name in self.steps.raw)

    def record_path_s(self, corrected: bool = True) -> float:
        """Every step that moves records after they exist."""
        return sum(
            self.step(name, corrected) for name in self.steps.raw
            if name not in ("study", "figures")
        )

    def plays(self, corrected: bool = True) -> list[float]:
        return self.play_corrected if corrected else self.play_s


def render_figures(ctx_factory, host, tracer=None, timeline: bool = True):
    """Render the figures at least ``FIGURE_REPEATS`` times and for at
    least ``FIGURE_WINDOW_S``, each time from a fresh context and followed by a
    host probe; return ``(median raw total s, median corrected total s,
    per-figure median s, payloads)``."""
    figures = [
        figure for figure in all_figures()
        if timeline or figure.figure_id != TIMELINE_FIGURE
    ]
    totals, corrected = [], []
    per_figure, payloads = collections.defaultdict(list), {}
    began = perf_counter()
    while (len(totals) < FIGURE_REPEATS
           or perf_counter() - began < FIGURE_WINDOW_S):
        ctx = ctx_factory()
        total = 0.0
        for figure in figures:
            with _span(tracer, f"experiments.render.{figure.figure_id}"):
                start = perf_counter()
                result = figure.run(ctx)
                seconds = perf_counter() - start
            total += seconds
            per_figure[figure.figure_id].append(seconds)
            payloads[figure.figure_id] = canonical_json(figure_payload(result))
        totals.append(total)
        corrected.append(total / host.probe())
    return (
        median(totals),
        median(corrected),
        {fid: median(times) for fid, times in per_figure.items()},
        payloads,
    )


def render_once(ctx_factory, timeline: bool = True) -> None:
    ctx = ctx_factory()
    for figure in all_figures():
        if timeline or figure.figure_id != TIMELINE_FIGURE:
            figure.run(ctx)


def payloads_sha256(payloads: dict[str, str]) -> str:
    return sha256_text(json.dumps(payloads, sort_keys=True))


def cache_round_trip(root: Path, key: str, chunks, records: int,
                     steps: Steps, tracer=None):
    """Store a study CSV in a fresh `StudyCache` (step ``cache_store``;
    ``chunks()`` yields its text), then time SHA-verified loads of it
    (step ``cache_hit``).  Returns ``(entry bytes, the last loaded
    entry)``."""
    cache = StudyCache(root)
    with _span(tracer, "sweep.cache_store"):
        steps.add_pair("cache_store", *median_time(
            lambda: cache.store_stream(key, chunks(), records),
            host=steps.host)[:2])
    with _span(tracer, "sweep.cache_load"):
        raw, corrected, entry = median_time(cache.load, key, host=steps.host)
    steps.add_pair("cache_hit", raw, corrected)
    nbytes = du_bytes(cache.entry_dir(key))
    shutil.rmtree(root, ignore_errors=True)
    return nbytes, entry


def _lightest_user(study: Study) -> str:
    """The first user with the fewest scheduled plays."""
    return min(study.schedule(), key=lambda entry: entry[1])[0]


class Workload:
    """A closed batch over inputs made from ``seed``."""

    name = ""
    #: What ``attempted`` counts.
    unit = "plays"

    def __init__(self, root: Path, seed: int, work: Path,
                 host: HostSpeed) -> None:
        self.root = root
        self.seed = seed
        self.work = work
        self.host = host
        self._passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def run_checks(self, passes: list[Pass]) -> dict[str, bool]:
        """Checks over the whole run (pass checks are in each Pass)."""
        return {}

    def _begin_pass(self) -> tuple[Path, Steps]:
        # The previous pass's cyclic garbage goes now, not at a moment
        # that depends on the pass count, so peak RSS repeats.
        gc.collect()
        self._passes += 1
        path = self.work / f"{self.name}-{self._passes}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        self.host.samples = []
        return path, Steps(self.host)


class Golden(Workload):
    """The pinned golden study, serial, on the default record path.

    The population is the golden one (seed 2001, scale 0.05: 65 users,
    137 plays); each play's random stream comes from the workload seed,
    so at seed 2001 this *is* the golden study and its figures must
    equal ``tests/goldens/`` byte for byte.
    """

    name = "golden"

    def __init__(self, root, seed, work, host, max_users: int | None = None):
        super().__init__(root, seed, work, host)
        self.max_users = max_users
        self.population = None

    def _study(self, seed: int) -> Study:
        return Study(
            StudyConfig(seed=seed, scale=GOLDEN_SCALE,
                        max_users=self.max_users),
            population=self.population,
        )

    def _context(self, dataset) -> ExperimentContext:
        # The context seed only drives fig01's own timeline play:
        # pinned, fig01 is the golden one at every workload seed.
        return ExperimentContext(
            dataset=dataset, population=self.population,
            seed=GOLDEN_SEED, scale=GOLDEN_SCALE,
        )

    def setup(self) -> None:
        self.population = build_population(
            RngFactory(GOLDEN_SEED), max_users=self.max_users
        )
        # Warm-up: one user's plays, their CSV and every figure.  It
        # plays at the golden seed, so the set-up does the same work at
        # every workload seed.
        study = self._study(GOLDEN_SEED)
        dataset = study.run_users([_lightest_user(study)])
        dataset.to_csv_string()
        render_once(lambda: self._context(dataset))

    def sizes(self) -> dict:
        return {
            "users": self.population.user_count,
            "plays": sum(
                plays for _uid, plays in self._study(self.seed).schedule()
            ),
        }

    def run_pass(self, tracer=None) -> Pass:
        work, steps = self._begin_pass()
        study = self._study(self.seed)
        scheduled = sum(plays for _uid, plays in study.schedule())
        with _PlayProbe(work / "probes", self.host) as probe:
            dataset = study.run()
        play_s, play_corrected = probe.add_study_step(steps, workers=1)

        csv_path = work / "study.csv"
        with _span(tracer, "export.csv"):
            steps.add_pair("csv_export", *median_time(
                dataset.to_csv, csv_path, host=self.host)[:2])
        csv_sha = sha256_file(csv_path)
        csv_text = csv_path.read_bytes().decode("utf-8")
        cache_bytes, entry = cache_round_trip(
            work / "cache", csv_sha, lambda: [csv_text], len(dataset),
            steps, tracer,
        )
        records = list(dataset)
        *figures, figure_s, payloads = render_figures(
            lambda: self._context(StudyDataset(records)), self.host, tracer
        )
        steps.add_pair("figures", *figures)
        shutil.rmtree(work, ignore_errors=True)
        return Pass(
            steps=steps,
            play_s=play_s,
            play_corrected=play_corrected,
            attempted=scheduled,
            delivered=len(dataset),
            csv_sha256=csv_sha,
            figures_sha256=payloads_sha256(payloads),
            payloads=payloads,
            figure_s=figure_s,
            checks={
                "all plays delivered": len(dataset) == scheduled,
                "cache hit returns the study": (
                    entry is not None
                    and entry.dataset.to_csv_string() == csv_text
                ),
            },
            facts={"records": records, "cache_bytes": cache_bytes},
        )

    def run_checks(self, passes: list[Pass]) -> dict[str, bool]:
        checks = {}
        if self.seed == GOLDEN_SEED and self.max_users is None:
            goldens = self.root / "tests" / "goldens"
            payloads = passes[0].payloads
            checks["figures equal tests/goldens"] = all(
                payloads[fid] == read_golden(goldens, fid) for fid in payloads
            )
            checks["record count equals the golden meta"] = (
                read_meta(goldens)["records"] == passes[0].delivered
            )
        # Replay one seed-chosen user in a fresh study: its records must
        # equal the ones the full serial run produced.
        users = self.population.users
        user = users[self.seed % len(users)].user_id
        replay = self._study(self.seed).run_users([user])
        ran = [r for r in passes[0].facts["records"] if r.user_id == user]
        checks["a replayed user's records are identical"] = (
            list(replay) == ran and len(ran) > 0
        )
        return checks


class AbrFleet(Workload):
    """The ``dash-abr`` scenario over a synthesized population, on the
    sketch record path with a checkpoint dir and a worker pool."""

    name = "abr-fleet"

    def __init__(self, root, seed, work, host, users: int = 160):
        super().__init__(root, seed, work, host)
        self.users = users
        self.config = configured(
            get_scenario("dash-abr"),
            StudyConfig(seed=seed, scale=ABR_SCALE, max_users=users,
                        aggregation="sketch"),
        )
        self.plan = None

    def setup(self) -> None:
        study = Study(self.config)
        self.plan = plan_shards(study)
        # Warm-up: one user's ABR plays in this process (pool workers
        # fork from it), their aggregates, CSV and figures.  It plays a
        # population of the golden seed, so the set-up does the same
        # work at every workload seed.
        warm = Study(replace(self.config, seed=GOLDEN_SEED))
        dataset = warm.run_users([_lightest_user(warm)])
        dataset.to_csv_string()
        aggregates = StudyAggregates()
        aggregates.add_many(dataset)
        render_once(lambda: ExperimentContext(
            aggregates=aggregates, population=warm.population,
            seed=self.seed, scale=ABR_SCALE,
        ), timeline=False)

    def sizes(self) -> dict:
        return {
            "users": len(self.plan.user_order),
            "plays": self.plan.total_plays,
            "shards": self.plan.shard_count,
            "workers": ABR_WORKERS,
        }

    def run_pass(self, tracer=None, workers: int | None = None) -> Pass:
        workers = ABR_WORKERS if workers is None else workers
        work, steps = self._begin_pass()
        pool = _PoolWatch()
        with _PlayProbe(work / "probes", self.host) as probe:
            result = run_study(self.config, RuntimeConfig(
                workers=workers, checkpoint_dir=work / "ckpt",
                progress=pool.progress,
            ))
        play_s, play_corrected = probe.add_study_step(steps, workers)
        dataset = result.dataset
        delivered = len(dataset) if result.complete else 0
        spill_bytes = du_bytes(work / "ckpt")

        csv_path = work / "study.csv"
        if tracer is not None:
            with _span(tracer, "spill.merge"):
                collections.deque(dataset.iter_rows(), maxlen=0)
        with _span(tracer, "export.csv"):
            steps.add_pair("csv_export", *median_time(
                dataset.to_csv, csv_path, host=self.host)[:2])
        csv_sha = sha256_file(csv_path)
        cache_bytes, entry = cache_round_trip(
            work / "cache", csv_sha, dataset.iter_csv_chunks,
            len(dataset), steps, tracer,
        )
        *figures, figure_s, payloads = render_figures(
            lambda: ExperimentContext(
                aggregates=result.aggregates, population=result.population,
                seed=self.seed, scale=ABR_SCALE,
            ),
            self.host, tracer, timeline=False,
        )
        steps.add_pair("figures", *figures)
        records = list(dataset)
        shutil.rmtree(work, ignore_errors=True)
        manifest = result.manifest
        return Pass(
            steps=steps,
            play_s=play_s,
            play_corrected=play_corrected,
            attempted=self.plan.total_plays,
            delivered=delivered,
            csv_sha256=csv_sha,
            figures_sha256=payloads_sha256(payloads),
            payloads=payloads,
            figure_s=figure_s,
            checks={
                "run complete, no quarantined shards": result.complete,
                "all plays delivered": delivered == self.plan.total_plays,
                "every played record is an ABR session": all(
                    r.is_abr for r in records if r.played
                ),
                "cache hit returns the study": (
                    entry is not None and len(entry.dataset) == len(records)
                ),
            },
            facts={
                "records": records,
                "manifest": manifest,
                "shard_s": [s["elapsed_s"] for s in manifest["shards"]],
                "tail_s": pool.tail_s(workers),
                "merge_s": probe.returned - pool.last_done if pool.done
                else 0.0,
                "spill_bytes": spill_bytes,
                "cache_bytes": cache_bytes,
            },
        )


class _PlayProbe:
    """Times every ``RealTracer.play_clip`` of one study run, and
    probes the host right after each play, in whichever process plays
    it (this one on a serial run).

    Pool workers fork from this process and inherit the wrapper; each
    process appends ``seconds slowdown probe_seconds`` lines to its own
    file, so a worker's plays are corrected by the speed *that worker*
    saw.  Probing from the parent beside busy workers would time the
    contention it adds instead.  A forked worker's first probes copy
    the kernel's pages, so it discards two before its first sample.
    """

    def __init__(self, directory: Path, host: HostSpeed) -> None:
        self.directory = directory
        self.host = host
        self._original = None
        self.started = self.returned = 0.0

    def __enter__(self) -> "_PlayProbe":
        self.directory.mkdir(parents=True, exist_ok=True)
        self._original = original = RealTracer.__dict__["play_clip"]
        directory, host = self.directory, self.host
        warmed: set[int] = set()

        def play_clip(tracer, *args, **kwargs):
            start = perf_counter()
            record = original(tracer, *args, **kwargs)
            played = perf_counter()
            pid = os.getpid()
            if pid not in warmed:
                warmed.add(pid)
                host.sample(2)
            slowdown = host.probe()
            probed = perf_counter()
            with open(directory / f"{pid}.txt", "a") as handle:
                handle.write(
                    f"{played - start!r} {slowdown!r} {probed - played!r}\n"
                )
            return record

        RealTracer.play_clip = functools.wraps(original)(play_clip)
        self.started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.returned = perf_counter()
        RealTracer.play_clip = self._original

    def read(self) -> tuple[list[float], list[float], float]:
        """Per-play raw and corrected seconds (each play by the mean of
        the nine probes around it in its process), and the seconds the
        probes took."""
        raw, corrected, probe_s = [], [], 0.0
        for path in sorted(self.directory.glob("*.txt")):
            rows = [tuple(map(float, line.split()))
                    for line in path.read_text().splitlines()]
            slowdowns = [row[1] for row in rows]
            for i, (seconds, _slowdown, probing) in enumerate(rows):
                near = slowdowns[max(0, i - 4): i + 5]
                raw.append(seconds)
                corrected.append(seconds * len(near) / sum(near))
                probe_s += probing
        self.host.samples = []
        return raw, corrected, probe_s

    def add_study_step(self, steps: Steps,
                       workers: int) -> tuple[list[float], list[float]]:
        """Add step ``study``: the run's seconds without the probes the
        ``workers`` processes ran, corrected by the plays' own
        correction.  Returns the per-play raw and corrected seconds."""
        raw, corrected, probe_s = self.read()
        study_s = self.returned - self.started - probe_s / workers
        scale = sum(corrected) / sum(raw) if raw else 1.0
        steps.add_pair("study", study_s, study_s * scale)
        return raw, corrected


class _PoolWatch:
    """A `RuntimeConfig.progress` callback recording when each shard
    finished (for the runtime metrics)."""

    def __init__(self) -> None:
        self.done: list[float] = []
        self._finished: set[int] = set()

    @property
    def last_done(self) -> float:
        return max(self.done)

    def progress(self, telemetry) -> None:
        now = perf_counter()
        for shard_id, stats in telemetry.shards.items():
            if stats.status == "done" and shard_id not in self._finished:
                self._finished.add(shard_id)
                self.done.append(now)

    def tail_s(self, workers: int) -> float:
        """Seconds from the first worker running out of shards to the
        last shard finishing."""
        if not self.done:
            return 0.0
        done = sorted(self.done)
        return done[-1] - done[max(0, len(done) - workers)]


class RecordPath(Workload):
    """No simulation: resampled records through the spill record path,
    `StudyAggregates`, the figures and `StudyCache`."""

    name = "record-path"
    unit = "records"

    def __init__(self, root, seed, work, host, users: int = 300):
        super().__init__(root, seed, work, host)
        self.users = users

    def setup(self) -> None:
        rows = list(StudyDataset.from_csv(
            self.root / "results" / "study_full.csv"
        ))
        self.population = build_population(
            RngFactory(self.seed), max_users=self.users
        )
        study = Study(StudyConfig(seed=self.seed, max_users=self.users),
                      population=self.population)
        self.schedule = study.schedule()
        self.plan = plan_shards(study, RECORD_SHARDS)
        self.base_ranks = user_base_ranks(self.schedule)
        rng = RngFactory(self.seed).child("perfbench", "record-path")
        users = {u.user_id: u for u in self.population.users}
        playlist = self.population.playlist
        picks = iter(rng.integers(0, len(rows), size=sum(
            plays for _uid, plays in self.schedule
        )).tolist())
        # Each user's schedule, filled with measured rows of the
        # committed study re-labelled with that user and playlist slot.
        self.by_user: dict[str, list] = {}
        for user_id, plays in self.schedule:
            user = users[user_id]
            self.by_user[user_id] = [
                replace(
                    rows[next(picks)],
                    user_id=user.user_id,
                    user_country=user.country.code,
                    user_state=user.state if user.state is not None else "",
                    user_region=user.region.value,
                    connection=user.connection.name,
                    pc_class=user.pc.name,
                    server_name=site.name,
                    server_country=site.country.code,
                    server_region=site.region.value,
                    clip_url=clip.url,
                )
                for site, clip in playlist[:plays]
            ]
        self.records = [
            r for user_id, _plays in self.schedule for r in self.by_user[user_id]
        ]
        self.direct_csv_sha = sha256_text(
            StudyDataset(self.records).to_csv_string()
        )
        # Warm-up: the whole flow over the first shard's first user.
        first = self.plan.shards[0].user_ids[0]
        warm = self.work / "warm-up"
        writer = SpillWriter(warm, 0)
        aggregates = StudyAggregates()
        for record in self.by_user[first]:
            writer.add(record)
            aggregates.add(record)
        spill = ShardSpill(warm, writer.finish())
        with open(warm / "warm.csv", "w", newline="") as handle:
            write_rows_csv(handle, iter_merged_rows([spill], [first]))
        render_once(lambda: ExperimentContext(
            aggregates=aggregates, population=self.population,
            seed=self.seed, scale=1.0,
        ), timeline=False)
        shutil.rmtree(warm, ignore_errors=True)

    def sizes(self) -> dict:
        return {
            "users": len(self.schedule),
            "records": len(self.records),
            "shards": self.plan.shard_count,
        }

    def run_pass(self, tracer=None) -> Pass:
        work, steps = self._begin_pass()
        spill_dir = work / "spill"
        # Per user: seconds per record, and the host probe after it.
        per_record: list[float] = []
        probe_of: list[int] = []
        write_s = aggregate_s = 0.0
        spills, parts = [], []
        spill_bytes = 0
        for shard in self.plan.shards:
            writer = SpillWriter(spill_dir, shard.shard_id)
            aggregates = StudyAggregates(user_base_rank=self.base_ranks)
            for user_id in shard.user_ids:
                records = self.by_user[user_id]
                with _span(tracer, "spill.write"):
                    t0 = perf_counter()
                    for record in records:
                        writer.add(record)
                    t1 = perf_counter()
                with _span(tracer, "analysis.aggregate"):
                    t2 = perf_counter()
                    for record in records:
                        aggregates.add(record)
                    t3 = perf_counter()
                write_s += t1 - t0
                aggregate_s += t3 - t2
                per_record.append((t1 - t0 + t3 - t2) / len(records))
                probe_of.append(len(self.host.samples))
                if len(probe_of) % USERS_PER_PROBE == 0:
                    self.host.probe()
            with _span(tracer, "spill.write"):
                start = perf_counter()
                index = writer.finish()
                write_s += perf_counter() - start
            spill_bytes += writer.bytes_written
            spills.append(ShardSpill(spill_dir, index))
            parts.append(aggregates)
        self.host.probe()
        local = self.host.local(window=5)
        play_corrected = [
            seconds / local[index]
            for seconds, index in zip(per_record, probe_of)
        ]
        # The ingest steps take the users' mean correction.
        scale = sum(play_corrected) / sum(per_record)
        steps.add_pair("spill_write", write_s, write_s * scale)
        steps.add_pair("aggregate", aggregate_s, aggregate_s * scale)

        if tracer is not None:
            with _span(tracer, "spill.merge"):
                collections.deque(
                    iter_merged_rows(spills, self.plan.user_order), maxlen=0
                )
        csv_path = work / "study.csv"
        with _span(tracer, "export.csv"):
            start = perf_counter()
            with open(csv_path, "w", newline="") as handle:
                write_rows_csv(
                    handle, iter_merged_rows(spills, self.plan.user_order)
                )
            steps.add(csv_export=perf_counter() - start)
        with _span(tracer, "analysis.merge"):
            start = perf_counter()
            merged = parts[0]
            for part in parts[1:]:
                merged.merge(part)
            steps.add(aggregate_merge=perf_counter() - start)
        dataset = SpilledDataset(spills, self.plan.user_order)
        csv_sha = sha256_file(csv_path)
        cache_bytes, entry = cache_round_trip(
            work / "cache", csv_sha, dataset.iter_csv_chunks,
            len(dataset), steps, tracer,
        )
        *figures, figure_s, payloads = render_figures(
            lambda: ExperimentContext(
                aggregates=merged, population=self.population,
                seed=self.seed, scale=1.0,
            ),
            self.host, tracer, timeline=False,
        )
        steps.add_pair("figures", *figures)
        shutil.rmtree(work, ignore_errors=True)
        count = len(self.records)
        return Pass(
            steps=steps,
            play_s=per_record,
            play_corrected=play_corrected,
            attempted=count,
            delivered=len(dataset),
            csv_sha256=csv_sha,
            figures_sha256=payloads_sha256(payloads),
            payloads=payloads,
            figure_s=figure_s,
            checks={
                "merged spill CSV equals the direct CSV":
                    csv_sha == self.direct_csv_sha,
                "aggregates saw every record": merged.records == count,
                "cache hit returns every record": (
                    entry is not None and len(entry.dataset) == count
                ),
            },
            facts={"spill_bytes": spill_bytes, "cache_bytes": cache_bytes},
        )


WORKLOADS = {
    Golden.name: Golden,
    AbrFleet.name: AbrFleet,
    RecordPath.name: RecordPath,
}
