"""The three benchmark workloads, their correctness checks and their metrics.

Every workload drives ``tripleforge.pipeline.STAGES`` in-process on a seeded
synthetic corpus, with the echo-gold mock provider and the hashing embedder,
the way ``scripts/run_mock_pipeline.py`` does.  A run sets the workload up
at least ``SETUP_REPEATS`` times and for at least ``SETUP_SECONDS``, then
repeats timed passes until its time is up.  Before each set-up and each
segment of a pass, and after the last pass, it times a fixed piece of
reference work (``reference.py``).  Each set-up and segment time is divided
by how much slower than usual the reference work ran around it, and the
metrics are medians over the set-ups or passes.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from statistics import fmean, median
from typing import Iterator, Optional

import numpy
from tripleforge import gateway, pipeline
from tripleforge.config import PipelineConfig

import corpus
import reference
from tracing import STAGE_NAMES, Tracer, instrument, layer_metrics

SETUP_REPEATS = 5
# a set-up of a few milliseconds is repeated until this much time is spent,
# so that its median is not one scheduler hiccup
SETUP_SECONDS = 0.25
# the mock provider is Python code that holds the interpreter lock, so more
# than one gateway thread adds only lock hand-offs, which a shared host
# makes noisy; the config default is 4
CONCURRENCY = 1
EPOCHS = 2
LEARNING_RATE = 1e-3
INDEX_STAGES = STAGE_NAMES[:3]
BATCH_STAGES = STAGE_NAMES[3:]


@dataclass(frozen=True)
class Sizes:
    pool: int
    test: int
    budget: int


SIZES = {
    "pool-index": Sizes(pool=250, test=40, budget=25),
    "test-batch": Sizes(pool=100, test=600, budget=30),
    "replay-sweep": Sizes(pool=40, test=100, budget=15),
}


class RequestTally:
    """Counts the prompt characters of every request the pipeline hands to the
    gateway, cache hits included.  It is on in every run, traced or not,
    because no artifact records what was sent."""

    def __init__(self) -> None:
        self.prompt_chars = 0
        self._lock = threading.Lock()

    @contextmanager
    def installed(self) -> Iterator[None]:
        original = gateway.LlmGateway.complete

        def complete(gw, request):
            with self._lock:
                self.prompt_chars += len(request.prompt)
            return original(gw, request)

        gateway.LlmGateway.complete = complete
        try:
            yield
        finally:
            gateway.LlmGateway.complete = original


class Checks:
    """Correctness checks and failed stage calls, counted against everything
    attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)


@dataclass
class Segment:
    """Stages of a pass timed in one go, right after the reference work with
    the yardstick mark ``mark``."""
    wall_s: float
    stage_s: float
    select_s: list[float]
    mark: int


@dataclass
class PassResult:
    segments: list[Segment]
    prompt_chars: int
    provider_calls: int
    output_chars: int
    f1: float

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.segments)

    @property
    def stage_s(self) -> float:
        return sum(s.stage_s for s in self.segments)


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    """One coverage pipeline over the corpus; subclasses set what is timed."""

    name = ""
    stages: tuple[str, ...] = STAGE_NAMES

    @property
    def segments(self) -> tuple[tuple[str, ...], ...]:
        """The pass's stages, split where the reference work is timed again."""
        return (self.stages,)

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.corpus: Optional[corpus.Corpus] = None
        self.reference_digest: Optional[str] = None

    @property
    def cache_dir(self) -> Path:
        return self.work / "cache"

    @property
    def runs_dir(self) -> Path:
        return self.work / "runs"

    def combos(self) -> dict[str, dict]:
        return {"coverage": {"strategy": "coverage"}}

    def config(self, combo: str) -> PipelineConfig:
        return PipelineConfig(
            pool_path=self.corpus.pool_path, test_path=self.corpus.test_path,
            run_dir=self.runs_dir / combo, cache_dir=self.cache_dir,
            concurrency=CONCURRENCY, epochs=EPOCHS, learning_rate=LEARNING_RATE,
            budget=self.sizes.budget, **self.combos()[combo],
        )

    def sentences(self) -> int:
        """Input sentences one timed pass consumes."""
        return self.sizes.pool + self.sizes.test

    def setup(self) -> None:
        self.corpus = corpus.generate(self.work / "corpus", self.seed,
                                      self.sizes.pool, self.sizes.test)

    def reset(self) -> None:
        """Untimed preparation before each timed pass."""

    def run_stages(self, stages: tuple[str, ...]) -> tuple[float, list[float]]:
        """Run ``stages`` for every combo; returns the summed stage wall time
        and the wall time of each select call."""
        total, select_s = 0.0, []
        for combo in self.combos():
            cfg = self.config(combo)
            for stage in stages:
                started = time.perf_counter()
                pipeline.STAGES[stage](cfg)
                elapsed = time.perf_counter() - started
                total += elapsed
                if stage == "select":
                    select_s.append(elapsed)
        return total, select_s

    @cached_property
    def pool_ids(self) -> frozenset[str]:
        lines = self.corpus.pool_path.read_text(encoding="utf-8").splitlines()[1:]
        return frozenset(json.loads(line)["id"] for line in lines)

    def digest(self) -> str:
        """sha256 over every artifact sha256 the run manifests record (not the
        manifests themselves, which carry timestamps)."""
        lines = []
        for combo in self.combos():
            manifest = _read_json(self.runs_dir / combo / pipeline.MANIFEST)
            for stage, entry in sorted(manifest["stages"].items()):
                for artifact, meta in sorted(entry["artifacts"].items()):
                    lines.append(f"{combo}/{stage}/{artifact} {meta['sha256']}")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def inspect(self, checks: Checks, segments: list[Segment], prompt_chars: int) -> PassResult:
        """Read the pass's artifacts back and run the correctness checks."""
        provider_calls, output_chars, f1 = 0, 0, 1.0
        for combo in self.combos():
            run_dir = self.runs_dir / combo
            manifest = _read_json(run_dir / pipeline.MANIFEST)
            provider_calls += sum(manifest["stages"][s]["info"].get("llm_calls", 0)
                                  for s in self.stages)
            if "select" in self.stages:
                chosen = _read_json(run_dir / pipeline.SELECTION)["chosen"]
                checks.expect(len(chosen) <= self.sizes.budget
                              and len(set(chosen)) == len(chosen)
                              and set(chosen) <= self.pool_ids,
                              f"{self.name}/{combo}: selection {chosen} breaks the budget "
                              f"{self.sizes.budget} or picks outside the pool")
            if "eval" in self.stages:
                combo_f1 = _read_json(run_dir / pipeline.EVAL_JSON)["f1"]
                checks.expect(combo_f1 == 1.0, f"{self.name}/{combo}: f1 {combo_f1} != 1.0")
                f1 = min(f1, combo_f1)
            if "cost" in self.stages:
                output_chars += _read_json(run_dir / pipeline.COST_JSON)["total_chars"]
        digest = self.digest()
        if self.reference_digest is None:
            self.reference_digest = digest
        checks.expect(digest == self.reference_digest,
                      f"{self.name}: artifact digest {digest} differs from {self.reference_digest}")
        return PassResult(segments, prompt_chars, provider_calls, output_chars, f1)


class PoolIndex(Workload):
    """Cold indexing of a fresh pool, then a first small test batch."""

    name = "pool-index"
    # select is timed right after the reference work, as on test-batch
    segments = (INDEX_STAGES, BATCH_STAGES)

    def reset(self) -> None:
        shutil.rmtree(self.runs_dir, ignore_errors=True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class TestBatch(Workload):
    """A large test batch against a pool indexed during set-up, cold cache."""

    name = "test-batch"
    stages = BATCH_STAGES

    def sentences(self) -> int:
        return self.sizes.test

    def setup(self) -> None:
        super().setup()
        self.run_stages(INDEX_STAGES)
        shutil.rmtree(self.cache_dir)

    def reset(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ReplaySweep(Workload):
    """The ablation grid replayed from a cache warmed during set-up."""

    name = "replay-sweep"

    def combos(self) -> dict[str, dict]:
        grid = {f"fmt-{fmt}": {"format": fmt, "strategy": "coverage"}
                for fmt in ("tableie", "textie", "codeie")}
        grid.update({f"strat-{s}": {"strategy": s} for s in ("topk", "balance", "random")})
        grid["direct-balance"] = {"strategy": "balance", "distance_source": "direct"}
        return grid

    def sentences(self) -> int:
        return len(self.combos()) * (self.sizes.pool + self.sizes.test)

    def setup(self) -> None:
        super().setup()
        self.run_stages(STAGE_NAMES)
        self.reference_digest = self.digest()

    def inspect(self, checks: Checks, *args) -> PassResult:
        result = super().inspect(checks, *args)
        checks.expect(result.provider_calls == 0,
                      f"{self.name}: warm replay made {result.provider_calls} provider calls")
        return result


WORKLOADS = {w.name: w for w in (PoolIndex, TestBatch, ReplaySweep)}


def _traced_pass_layers(name: str, workload: Workload, tracer: Tracer, result: PassResult,
                        checks: Checks) -> dict[str, float]:
    """Per-layer metrics of one traced pass, plus the check that the stage
    spans account for the stage wall time measured outside them."""
    layers = layer_metrics(tracer)
    layers["gateway.cache_bytes"] = _tree_bytes(workload.cache_dir)
    layers["pipeline.artifact_bytes"] = _tree_bytes(workload.runs_dir)
    # only stage spans are roots; each one's self time plus what its children
    # cover is its duration
    accounted = sum(s.duration for s in tracer.spans if s.parent is None)
    layers["trace.stage_coverage"] = accounted / result.wall_s
    checks.expect(abs(accounted - result.stage_s) <= 0.01 * result.stage_s + 1e-3,
                  f"{name}: stage spans cover {accounted:.4f} s of "
                  f"{result.stage_s:.4f} s stage wall time")
    return layers


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Optional[Sizes] = None, trace_dir: Optional[Path] = None) -> dict:
    """Set up, measure and check one workload; returns the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``) plus a ``summary``."""
    workload = WORKLOADS[name](work, seed, sizes or SIZES[name])
    checks = Checks()
    tally = RequestTally()
    yardstick = reference.Yardstick()
    setups: list[float] = []
    setup_marks: list[int] = []
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    tracers: list[Tracer] = []
    with tally.installed():
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            workload.reference_digest = None
            setup_marks.append(yardstick.mark())
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)

        deadline = time.perf_counter() + seconds
        k = crashed = 0
        while not (time.perf_counter() >= deadline
                   and (crashed or (untraced and (traced or not trace)))):
            tracer = (Tracer(f"{name}/seed{seed}/pid{os.getpid()}/pass{k}")
                      if trace and k % 2 else None)
            k += 1
            # before the reset: what runs right after its file deletions runs slow
            mark = yardstick.mark()
            workload.reset()
            prompt_chars_before = tally.prompt_chars
            segments = []
            try:
                with instrument(tracer) if tracer else nullcontext():
                    for i, stages in enumerate(workload.segments):
                        if i:
                            mark = yardstick.mark()
                        started = time.perf_counter()
                        stage_s, select_s = workload.run_stages(stages)
                        segments.append(Segment(time.perf_counter() - started, stage_s,
                                                select_s, mark))
            except Exception:  # a failing stage is a counted failure, not a crash
                traceback.print_exc()
                crashed += 1
                checks.expect(False, f"{name}: pass {k} raised")
                continue
            checks.attempted += len(workload.stages) * len(workload.combos())
            result = workload.inspect(checks, segments, tally.prompt_chars - prompt_chars_before)
            if tracer is None:
                untraced.append(result)
                continue
            layers = _traced_pass_layers(name, workload, tracer, result, checks)
            traced.append((result, layers))
            tracers.append(tracer)
        yardstick.mark()

    if not untraced or (trace and not traced):
        raise RuntimeError(f"{name}: no timed pass completed")
    n = workload.sentences()

    def throughput(results: list[PassResult]) -> float:
        return median(n / sum(s.wall_s / yardstick.slowdown(s.mark) for s in r.segments)
                      for r in results)

    def select_s(r: PassResult) -> list[float]:
        return [t / yardstick.slowdown(s.mark) for s in r.segments for t in s.select_s]

    summary = {
        "workload": name,
        "seed": seed,
        "sizes": vars(workload.sizes),
        "setups": len(setups),
        "passes": len(untraced),
        "pass_wall_s": [r.wall_s for r in untraced],
        "setup_wall_s": setups,
        "reference_s": yardstick.times,
        "wall_sentences_per_s": n * len(untraced) / sum(r.wall_s for r in untraced),
        "wall_time_to_selection_s": fmean(t for r in untraced for s in r.segments
                                          for t in s.select_s),
        "traced_passes": len(traced),
        "duplicate_share": workload.corpus.duplicate_share,
        "llm_calls": int(median(r.provider_calls for r in untraced)),
        "error_rate": checks.failed / checks.attempted,
        "artifact_digest": workload.reference_digest,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if trace:
        metrics = {key: median(layers[key] for _, layers in traced) for key in traced[0][1]}
        plain = throughput(untraced)
        with_spans = throughput([r for r, _ in traced])
        metrics["trace.sentences_per_s_untraced"] = plain
        metrics["trace.sentences_per_s_traced"] = with_spans
        metrics["trace.overhead_share"] = 1.0 - with_spans / plain
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{name}-seed{seed}.json"
            path.write_text(json.dumps({
                "summary": summary,
                "passes": [{"run_id": t.run_id,
                            "spans": [asdict(s) for s in t.spans],
                            "counters": dict(t.counters), "values": dict(t.values)}
                           for t in tracers],
            }) + "\n", encoding="utf-8")
            summary["trace_file"] = str(path)
    else:
        metrics = {
            "sentences_per_s": throughput(untraced),
            "time_to_selection_s": median(fmean(select_s(r)) for r in untraced),
            "setup_s": median(s / yardstick.slowdown(k) for s, k in zip(setups, setup_marks)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "disk_mb": (_tree_bytes(workload.runs_dir) + _tree_bytes(workload.cache_dir)) / 1e6,
            "prompt_kchars": median(r.prompt_chars for r in untraced) / 1000,
            "output_kchars": median(r.output_chars for r in untraced) / 1000,
            "f1": min(r.f1 for r in untraced),
        }
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "summary": summary,
    }
