"""Stage orchestration: each stage consumes the previous stage's artifact
from the run directory, writes its own, and records paths, content hashes,
and call counts in the run manifest.  All artifacts are deterministic
functions of (inputs, config, seed, cached responses), so replaying a run
with a warm cache reproduces them byte for byte.
"""
from __future__ import annotations

import datetime as _dt
import functools
import inspect
import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, TypeVar

from .config import PipelineConfig
from .core import Dataset, Sample, TripleSet, load_dataset, verbalize_triple
from .evaluation import cost_report, micro_f1
from .gateway import LlmGateway, LlmRequest, MockEchoGoldProvider, HttpChatProvider
from .prompting import (
    PromptFormat,
    parse_output,
    render_few_shot,
    render_zero_shot,
)
from .retriever import (
    compute_P,
    load_checkpoint,
    save_checkpoint,
    train_retriever,
)
from .selection import (
    STRATEGIES,
    SelectionResult,
    order_demonstrations,
    select_balance,
    select_coverage,
    select_random,
    select_top_k,
)
from .similarity import (
    Artifact,
    EmbeddingProvider,
    HashingEmbedder,
    HttpEmbeddingProvider,
    PairwiseDistanceSet,
    PoolDistanceMatrix,
    embed_triple_sets,
    pool_distances,
    replace_file,
    set_distance,  # noqa: F401  perfbench's tracer patches pipeline.set_distance by name
    set_distances,
    write_artifact,
)

MANIFEST = "manifest.json"
PREEXTRACT = "preextract.json"
PREEXTRACT_TEST = "preextract_test.json"
POOL_DISTANCES = "pool_distances.npz"
TRAINING_HISTORY = "training_history.json"
PAIRWISE = "pairwise_distances.npz"
SELECTION = "selection.json"
OUTPUTS = "outputs.json"
PREDICTIONS = "predictions.json"
EVAL_JSON = "eval_report.json"
EVAL_TXT = "eval_report.txt"
COST_JSON = "cost_report.json"
COST_TXT = "cost_report.txt"
CHECKPOINT = "retriever.ckpt"

# the stage that writes each artifact a later stage reads
PRODUCERS = {PREEXTRACT: "preextract", POOL_DISTANCES: "distances", CHECKPOINT: "train",
             PAIRWISE: "select", SELECTION: "select", OUTPUTS: "run", PREDICTIONS: "run"}
# the ``kind`` each JSON artifact a later stage reads declares
KINDS = {PREEXTRACT: "preextraction", SELECTION: "selection", OUTPUTS: "outputs",
         PREDICTIONS: "predictions"}
_Read = TypeVar("_Read")


class UpstreamMissingError(RuntimeError):
    """A stage's input artifact does not exist yet."""


@dataclass
class StageOutcome:
    stage: str
    artifacts: dict[str, Artifact]
    info: dict = field(default_factory=dict)


STAGES: dict[str, Callable[[PipelineConfig], StageOutcome]] = {}


def _stage(body: Callable[[PipelineConfig], tuple[list[Artifact], dict]]):
    """Register ``stage_<name>`` in ``STAGES``.  The body returns the files
    it wrote and its manifest info; the registered stage records them in the
    manifest under each file's name and returns the ``StageOutcome``."""
    name = body.__name__.removeprefix("stage_")

    @functools.wraps(body)
    def stage(cfg: PipelineConfig) -> StageOutcome:
        written, info = body(cfg)
        outcome = StageOutcome(name, {a.path.name: a for a in written}, info)
        _update_manifest(cfg, outcome)
        return outcome

    STAGES[name] = stage
    return stage


def _json_bytes(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _write_json(path: Path, obj) -> Artifact:
    return write_artifact(path, _json_bytes(obj))


def _read_upstream(cfg: PipelineConfig, name: str, read: Callable[[Path], _Read],
                   path: Optional[Path] = None) -> _Read:
    """``read(path)`` of the upstream artifact ``name``, by default
    ``run_dir / name``.  A missing file raises ``UpstreamMissingError``; one
    that ``read`` cannot parse, or whose kind or fields it refuses, raises a
    ``RuntimeError`` naming the file and the stage that writes it."""
    path = cfg.run_dir / name if path is None else path
    if not path.exists():
        raise UpstreamMissingError(
            f"missing artifact {path}: run `tripleforge {PRODUCERS[name]}` first")
    try:
        return read(path)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise RuntimeError(f"damaged artifact {path} ({type(exc).__name__}: {exc}): "
                           f"re-run `tripleforge {PRODUCERS[name]}`") from None


def _json(decode: Callable[[dict], _Read]) -> Callable[[Path], _Read]:
    """A ``read`` for ``_read_upstream``: ``decode`` of the JSON artifact,
    which must be an object that declares the artifact's ``kind``."""
    def read(path: Path) -> _Read:
        value = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(value, dict) or value.get("kind") != KINDS[path.name]:
            raise ValueError(f"not a {KINDS[path.name]} artifact")
        return decode(value)
    return read


def _update_manifest(cfg: PipelineConfig, outcome: StageOutcome) -> None:
    manifest_path = cfg.run_dir / MANIFEST
    try:  # ``{**stages}`` raises TypeError unless it is a JSON object
        stages = {**json.loads(manifest_path.read_text(encoding="utf-8"))["stages"]}
    except (FileNotFoundError, ValueError, LookupError, TypeError):
        stages = {}  # a missing or damaged manifest starts afresh
    stages[outcome.stage] = {
        "artifacts": {
            name: {"path": os.path.relpath(path, cfg.run_dir), "sha256": sha256}
            for name, (path, sha256) in outcome.artifacts.items()
        },
        "info": outcome.info,
        "completed_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    # ``completed_at`` changes on every run: no equal-bytes check to make
    replace_file(manifest_path, _json_bytes({"config": cfg.snapshot(), "stages": stages}))


def build_gateway(cfg: PipelineConfig,
                  datasets: Optional[list[Dataset]] = None) -> LlmGateway:
    """Provider + cache per the config; the mock provider echoes the gold
    triples of every sentence in the supplied datasets."""
    if cfg.provider == "mock":
        gold_by_text: dict[str, TripleSet] = {}
        for ds in datasets or []:
            by_id = ds.sample_by_id()
            for sid, triples in ds.gold.items():
                gold_by_text[by_id[sid].text] = triples
        provider = MockEchoGoldProvider(gold_by_text, fmt=PromptFormat(cfg.format))
    else:
        provider = HttpChatProvider(cfg.endpoint_url)
    return LlmGateway(provider, cfg.effective_cache_dir,
                      max_attempts=cfg.retry_attempts,
                      backoff_base=cfg.backoff_base)


def build_embedder(cfg: PipelineConfig) -> EmbeddingProvider:
    """The configured embedder; ``PipelineConfig`` admits only hash and http."""
    if cfg.embedder == "http":
        return HttpEmbeddingProvider(cfg.embedding_endpoint, cfg.embedding_model,
                                     dim=cfg.embedding_dim)
    return HashingEmbedder(dim=cfg.embedding_dim)


def _complete_all(cfg: PipelineConfig, gateway: LlmGateway,
                  bodies: list[str], prefix: str = "") -> list[str]:
    """Issue completions on at most ``cfg.concurrency`` threads, which
    bounds the calls in flight; results come back in body order; each
    prompt is ``prefix + body``, built for its call."""
    def one(body: str) -> str:
        return gateway.complete(LlmRequest(model_id=cfg.model_id, prompt=prefix + body,
                                           prefix=prefix)).text

    if cfg.concurrency <= 1 or len(bodies) <= 1:
        return [one(b) for b in bodies]
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        return list(pool.map(one, bodies))


def _preextraction(cfg: PipelineConfig, gateway: LlmGateway,
                   samples: list[Sample], split: str) -> dict:
    """Zero-shot extraction over samples, as a preextraction artifact with
    per-sample records and the ids that yielded no triple.  Always tabular:
    the other grammars give the model no structural signal without
    demonstrations."""
    records: dict[str, dict] = {}
    excluded: list[str] = []
    texts = _complete_all(cfg, gateway, [render_zero_shot(s) for s in samples])
    for sample, text in zip(samples, texts):
        parsed = parse_output(PromptFormat.TABLEIE, text, sample.text)
        records[sample.id] = {
            "triples": parsed.triples.to_list(),
            "verbalizations": [verbalize_triple(t) for t in parsed.triples],
            "skipped_rows": parsed.skipped_rows,
            "diagnostics": parsed.diagnostics,
        }
        if len(parsed.triples) == 0:
            excluded.append(sample.id)
    return {
        "kind": KINDS[PREEXTRACT],
        "split": split,
        "provider": gateway.provider.name,
        "model_id": cfg.model_id,
        "order": [s.id for s in samples],
        "samples": records,
        "excluded": excluded,
    }


@_stage
def stage_preextract(cfg: PipelineConfig):
    """Schema-agnostic zero-shot extraction over the unlabeled pool."""
    pool = load_dataset(cfg.pool_path)
    test = load_dataset(cfg.test_path)
    gateway = build_gateway(cfg, [pool, test])
    artifact = _preextraction(cfg, gateway, pool.samples, "pool")
    return [_write_json(cfg.run_dir / PREEXTRACT, artifact)], {
        "pool_size": len(pool.samples),
        "excluded": len(artifact["excluded"]),
        **asdict(gateway.stats),
    }


def _strings(values: list) -> list[str]:
    """``values``, a decoded list that a stage passes on as strings."""
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise TypeError(f"expected a list of strings, got {values!r:.60}")
    return values


def _verbalizations(artifact: dict) -> tuple[dict[str, list[str]], list[str]]:
    """Verbalizations by included sample id (artifact order) plus excluded ids."""
    excluded = set(artifact["excluded"])
    verbal = {
        sid: _strings(artifact["samples"][sid]["verbalizations"])
        for sid in artifact["order"]
        if sid not in excluded
    }
    return verbal, sorted(excluded)


@_stage
def stage_distances(cfg: PipelineConfig):
    """Pairwise triple-set distances over the pre-extracted pool."""
    verbal, excluded = _read_upstream(cfg, PREEXTRACT, _json(_verbalizations))
    if len(verbal) < 1:
        raise RuntimeError("no pool samples with pre-extracted triples")
    embedder = build_embedder(cfg)
    matrix = pool_distances(verbal, embedder)
    return [matrix.save(cfg.run_dir / POOL_DISTANCES)], {
        "n": matrix.n, "excluded": len(excluded), "embedder": embedder.name}


@_stage
def stage_train(cfg: PipelineConfig):
    """Fit the retriever projection to the pool distance matrix."""
    matrix = _read_upstream(cfg, POOL_DISTANCES, PoolDistanceMatrix.load)
    pool = load_dataset(cfg.pool_path)
    texts = {s.id: s.text for s in pool.samples}
    model, history = train_retriever(texts, matrix, build_embedder(cfg), cfg)
    ckpt = save_checkpoint(model, cfg.effective_checkpoint_path)
    history_path = _write_json(cfg.run_dir / TRAINING_HISTORY, asdict(history))
    return [ckpt, history_path], {
        "best_epoch": history.best_epoch,
        "initial_validation_loss": history.initial_validation_loss,
        "final_validation_loss": (history.epochs[-1]["validation_loss_mean"]
                                  if history.epochs else history.initial_validation_loss),
        "initial_validation_rho": history.initial_validation_rho,
        "best_validation_rho": history.best_validation_rho,
    }


def _pairwise_from_retriever(cfg: PipelineConfig, pool: Dataset, test: Dataset
                             ) -> tuple[PairwiseDistanceSet, dict, dict]:
    # the checkpoint may sit outside run_dir, so it is read by path
    ckpt, base = cfg.effective_checkpoint_path, build_embedder(cfg)
    model = _read_upstream(cfg, CHECKPOINT, lambda path: load_checkpoint(path, base), ckpt)
    if (cfg.run_dir / PREEXTRACT).exists():
        verbal, excluded = _read_upstream(cfg, PREEXTRACT, _json(_verbalizations))
        included = set(verbal)
        pool_samples = [s for s in pool.samples if s.id in included]
    else:
        # cross-dataset checkpoints score a pool that was never pre-extracted
        excluded = []
        pool_samples = pool.samples
    P = compute_P(model, pool_samples, test.samples)
    return P, {"excluded_pool": excluded, "checkpoint": str(ckpt)}, {}


def _pairwise_direct(cfg: PipelineConfig, pool: Dataset, test: Dataset
                     ) -> tuple[PairwiseDistanceSet, dict, dict]:
    """Pre-extract the test samples too and take triple-set distances
    straight into the pool-to-test matrix; no retriever involved.  The test
    pre-extraction comes back for the caller to write."""
    pool_verbal, excluded_pool = _read_upstream(cfg, PREEXTRACT, _json(_verbalizations))
    refusal = "direct distance mode needs non-empty pre-extractions on both sides"
    if not pool_verbal:
        raise RuntimeError(refusal)

    gateway = build_gateway(cfg, [pool, test])
    test_artifact = _preextraction(cfg, gateway, test.samples, "test")
    test_verbal, _ = _verbalizations(test_artifact)
    if not test_verbal:
        raise RuntimeError(refusal)
    embedder = build_embedder(cfg)
    pool_embedded = embed_triple_sets(pool_verbal, embedder)
    test_embedded = embed_triple_sets(test_verbal, embedder)
    entries = set_distances(list(pool_embedded.values()), list(test_embedded.values()))
    P = PairwiseDistanceSet(tuple(pool_embedded), tuple(test_embedded), entries,
                            provider=f"direct/{embedder.name}")
    return P, {"excluded_pool": excluded_pool, "excluded_test": test_artifact["excluded"],
               **asdict(gateway.stats)}, {PREEXTRACT_TEST: test_artifact}


def _select(cfg: PipelineConfig, P: PairwiseDistanceSet, pool: Dataset) -> SelectionResult:
    """Run the configured strategy, passing it the settings it takes by
    parameter name.  The function is looked up in this module's namespace
    rather than called from ``STRATEGIES``, so a wrapper installed on
    ``pipeline.select_<name>`` sees the call.  Every candidate must have
    gold triples, from which the chosen ones are annotated."""
    select = globals()[STRATEGIES[cfg.strategy].__name__]
    settings = {"P": P, "pool_ids": P.unlabeled_ids, "B": cfg.budget, "u": cfg.top_u,
                "seed": cfg.seed, "schema": pool.schema, "gold": pool.gold}
    params = inspect.signature(select).parameters
    if "schema" in params and pool.schema is None:
        raise RuntimeError(f"{cfg.strategy} strategy needs a schema; "
                           "the pool file carries no labels")
    unlabeled = [sid for sid in P.unlabeled_ids if sid not in pool.gold]
    if unlabeled:
        raise ValueError(f"{cfg.pool_path}: select annotates from gold triples, and pool "
                         f"samples {unlabeled[:5]} have none")
    return select(**{name: settings[name] for name in params})


@_stage
def stage_select(cfg: PipelineConfig):
    """Pick demonstrations from pool-to-test distances and annotate them."""
    pool = load_dataset(cfg.pool_path)
    test = load_dataset(cfg.test_path)
    pairwise = (_pairwise_from_retriever if cfg.distance_source == "retriever"
                else _pairwise_direct)
    P, info, extra = pairwise(cfg, pool, test)
    result = _select(cfg, P, pool)  # refuses before anything is written

    written = [_write_json(cfg.run_dir / name, artifact) for name, artifact in extra.items()]
    written.append(P.save(cfg.run_dir / PAIRWISE))
    written.append(_write_json(cfg.run_dir / SELECTION, {
        **result.to_json_dict(),
        "kind": KINDS[SELECTION],
        "distance_source": cfg.distance_source,
        "u": cfg.top_u,
        "annotations": {sid: pool.gold[sid].to_list() for sid in result.chosen},
        "oracle": {"checked": result.checked_count, "annotated": len(result.chosen)},
    }))
    return written, {
        **info, "strategy": cfg.strategy, "budget": cfg.budget,
        "chosen": list(result.chosen),
        "checked_count": result.checked_count,
        "annotated_count": len(result.chosen),
    }


@_stage
def stage_run(cfg: PipelineConfig):
    """Query the model with one shared demonstration set and parse the outputs."""
    chosen, gold_by_id = _read_upstream(cfg, SELECTION, _json(lambda raw: (raw["chosen"], {
        sid: TripleSet.from_list(raw["annotations"][sid]) for sid in raw["chosen"]})))
    P = _read_upstream(cfg, PAIRWISE, PairwiseDistanceSet.load)
    pool = load_dataset(cfg.pool_path)
    test = load_dataset(cfg.test_path)

    demos = order_demonstrations(
        chosen, P, pool.sample_by_id(), gold_by_id,
        most_similar_last=(cfg.demo_order == "similar-last"),
    )

    fmt = PromptFormat(cfg.format)
    gateway = build_gateway(cfg, [pool, test])
    prefix, bodies = render_few_shot(fmt, demos, test.samples)
    texts = _complete_all(cfg, gateway, bodies, prefix)
    outputs = {sample.id: text for sample, text in zip(test.samples, texts)}
    parsed = {sample.id: parse_output(fmt, text, sample.text)
              for sample, text in zip(test.samples, texts)}
    skipped_total = sum(p.skipped_rows for p in parsed.values())

    outputs_path = _write_json(cfg.run_dir / OUTPUTS, {
        "kind": KINDS[OUTPUTS], "format": fmt.value, "model_id": cfg.model_id, "outputs": outputs,
    })
    predictions_path = _write_json(cfg.run_dir / PREDICTIONS, {
        "kind": KINDS[PREDICTIONS],
        "format": fmt.value,
        "predictions": {sid: p.triples.to_list() for sid, p in parsed.items()},
        "parse_skipped_rows": skipped_total,
        "diagnostics": {sid: p.diagnostics for sid, p in parsed.items() if p.diagnostics},
    })
    return [outputs_path, predictions_path], {
        "test_size": len(test.samples),
        "demonstrations": len(demos),
        "parse_skipped_rows": skipped_total,
        **asdict(gateway.stats),
    }


def _write_report(cfg: PipelineConfig, json_name: str, txt_name: str, report) -> list[Artifact]:
    """A report's JSON and its table text, side by side in run_dir."""
    return [_write_json(cfg.run_dir / json_name, asdict(report)),
            write_artifact(cfg.run_dir / txt_name, report.to_table_text().encode("utf-8"))]


@_stage
def stage_eval(cfg: PipelineConfig):
    """Strict micro F1 of the parsed predictions against the test gold."""
    predictions, skipped = _read_upstream(cfg, PREDICTIONS, _json(lambda raw: (
        {sid: TripleSet.from_list(ts) for sid, ts in raw["predictions"].items()},
        operator.index(raw["parse_skipped_rows"]))))
    test = load_dataset(cfg.test_path)
    unlabeled = [s.id for s in test.samples if s.id not in test.gold]
    if unlabeled:
        raise ValueError(f"{cfg.test_path}: eval needs gold triples, and test samples "
                         f"{unlabeled[:5]} have none")
    report = micro_f1(predictions, test.gold, parse_skipped_rows=skipped)
    return (_write_report(cfg, EVAL_JSON, EVAL_TXT, report),
            {"precision": report.precision, "recall": report.recall, "f1": report.f1})


@_stage
def stage_cost(cfg: PipelineConfig):
    """Character-count cost report over the raw model outputs."""
    report = cost_report(_read_upstream(cfg, OUTPUTS, _json(
        lambda raw: _strings([raw["outputs"][sid] for sid in sorted(raw["outputs"])]))))
    return _write_report(cfg, COST_JSON, COST_TXT, report), asdict(report)
