"""Stage orchestration: each stage consumes the previous stage's artifact
from the run directory, writes its own, and records paths, content hashes,
and call counts in the run manifest.  All artifacts are deterministic
functions of (inputs, config, seed, cached responses), so replaying a run
with a warm cache reproduces them byte for byte.
"""
from __future__ import annotations

import datetime as _dt
import hashlib
import inspect
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .config import PipelineConfig
from .core import (
    AnnotationOracle,
    Dataset,
    Sample,
    Schema,
    TripleSet,
    load_dataset,
    verbalize_triple,
)
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
    EmbeddingProvider,
    HashingEmbedder,
    HttpEmbeddingProvider,
    PairwiseDistanceSet,
    PoolDistanceMatrix,
    embed_triple_sets,
    pool_distances,
    set_distance,  # noqa: F401  (kept importable as pipeline.set_distance)
    set_distances,
)

MANIFEST = "manifest.json"
PREEXTRACT = "preextract.json"
PREEXTRACT_TEST = "preextract_test.json"
POOL_DISTANCES = "pool_distances.npz"
CHECKPOINT = "retriever.ckpt"
TRAINING_HISTORY = "training_history.json"
PAIRWISE = "pairwise_distances.npz"
SELECTION = "selection.json"
OUTPUTS = "outputs.json"
PREDICTIONS = "predictions.json"
EVAL_JSON = "eval_report.json"
EVAL_TXT = "eval_report.txt"
COST_JSON = "cost_report.json"
COST_TXT = "cost_report.txt"


class UpstreamMissingError(RuntimeError):
    """A stage's input artifact does not exist yet."""


@dataclass
class StageOutcome:
    stage: str
    artifacts: dict[str, Path]
    info: dict = field(default_factory=dict)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1) + "\n",
                    encoding="utf-8")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise UpstreamMissingError(
            f"missing artifact {path.name}: run `tripleforge {producer}` first"
        )
    return path


def _update_manifest(cfg: PipelineConfig, outcome: StageOutcome) -> None:
    manifest_path = cfg.run_dir / MANIFEST
    manifest = _read_json(manifest_path) if manifest_path.exists() else {}
    manifest["config"] = cfg.snapshot()
    manifest["seed"] = cfg.seed
    manifest["provider"] = cfg.provider
    manifest["model_id"] = cfg.model_id
    stages = manifest.setdefault("stages", {})
    stages[outcome.stage] = {
        "artifacts": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in outcome.artifacts.items()
        },
        "info": outcome.info,
        "completed_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    _write_json(manifest_path, manifest)


def build_gateway(cfg: PipelineConfig,
                  datasets: Optional[list[Dataset]] = None) -> LlmGateway:
    """Provider + cache per the config; the mock provider echoes the gold
    triples of every sentence in the supplied datasets."""
    if cfg.provider == "mock":
        gold_by_text: dict[str, TripleSet] = {}
        for ds in datasets or []:
            by_id = ds.sample_by_id()
            for sid, ann in ds.gold.items():
                gold_by_text[by_id[sid].text] = ann.triples
        provider = MockEchoGoldProvider(gold_by_text, fmt=PromptFormat.parse(cfg.format))
    else:
        provider = HttpChatProvider(cfg.endpoint_url)
    return LlmGateway(provider, cfg.effective_cache_dir,
                      max_attempts=cfg.retry_attempts,
                      backoff_base=cfg.backoff_base,
                      concurrency=cfg.concurrency)


def _call_counts(gateway: LlmGateway) -> dict[str, int]:
    """The gateway's call accounting, for a stage's manifest info."""
    stats = gateway.stats
    return {
        "llm_calls": stats.provider_calls,
        "cache_hits": stats.cache_hits,
        "retries": stats.retries,
        "unreadable_cache_entries": stats.unreadable_cache_entries,
    }


def build_embedder(cfg: PipelineConfig) -> EmbeddingProvider:
    """The configured embedder; ``PipelineConfig`` admits only hash and http."""
    if cfg.embedder == "http":
        return HttpEmbeddingProvider(cfg.embedding_endpoint, cfg.embedding_model,
                                     dim=cfg.embedding_dim)
    return HashingEmbedder(dim=cfg.embedding_dim)


def _complete_all(cfg: PipelineConfig, gateway: LlmGateway,
                  prompts: list[str]) -> list[str]:
    """Issue completions concurrently; the gateway's semaphore enforces the
    in-flight bound and results come back in prompt order."""
    def one(prompt: str) -> str:
        return gateway.complete(LlmRequest(model_id=cfg.model_id, prompt=prompt)).text

    if cfg.concurrency <= 1 or len(prompts) <= 1:
        return [one(p) for p in prompts]
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        return list(pool.map(one, prompts))


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
            "diagnostics": [list(d) for d in parsed.diagnostics],
        }
        if len(parsed.triples) == 0:
            excluded.append(sample.id)
    return {
        "kind": "preextraction",
        "split": split,
        "provider": gateway.provider.name,
        "model_id": cfg.model_id,
        "order": [s.id for s in samples],
        "samples": records,
        "excluded": excluded,
    }


def stage_preextract(cfg: PipelineConfig) -> StageOutcome:
    """Schema-agnostic zero-shot extraction over the unlabeled pool."""
    pool = load_dataset(cfg.pool_path, "train")
    test = load_dataset(cfg.test_path, "test")
    gateway = build_gateway(cfg, [pool, test])
    artifact = _preextraction(cfg, gateway, pool.samples, "pool")
    path = cfg.run_dir / PREEXTRACT
    _write_json(path, artifact)
    outcome = StageOutcome(
        stage="preextract",
        artifacts={PREEXTRACT: path},
        info={
            "pool_size": len(pool.samples),
            "excluded": len(artifact["excluded"]),
            **_call_counts(gateway),
        },
    )
    _update_manifest(cfg, outcome)
    return outcome


def _verbalizations(artifact: dict) -> tuple[dict[str, list[str]], list[str]]:
    """Verbalizations by included sample id (artifact order) plus excluded ids."""
    excluded = set(artifact["excluded"])
    verbal = {
        sid: artifact["samples"][sid]["verbalizations"]
        for sid in artifact["order"]
        if sid not in excluded
    }
    return verbal, sorted(excluded)


def stage_distances(cfg: PipelineConfig) -> StageOutcome:
    """Pairwise triple-set distances over the pre-extracted pool."""
    pre_path = _require(cfg.run_dir / PREEXTRACT, "preextract")
    verbal, excluded = _verbalizations(_read_json(pre_path))
    if len(verbal) < 1:
        raise RuntimeError("no pool samples with pre-extracted triples")
    embedder = build_embedder(cfg)
    matrix = pool_distances(verbal, embedder)
    path = cfg.run_dir / POOL_DISTANCES
    matrix.save(path)
    outcome = StageOutcome(
        stage="distances",
        artifacts={POOL_DISTANCES: path},
        info={"n": matrix.n, "excluded": len(excluded), "embedder": embedder.name},
    )
    _update_manifest(cfg, outcome)
    return outcome


def stage_train(cfg: PipelineConfig) -> StageOutcome:
    """Fit the retriever projection to the pool distance matrix."""
    matrix_path = _require(cfg.run_dir / POOL_DISTANCES, "distances")
    matrix = PoolDistanceMatrix.load(matrix_path)
    pool = load_dataset(cfg.pool_path, "train")
    texts = {s.id: s.text for s in pool.samples}
    embedder = build_embedder(cfg)
    model, history = train_retriever(texts, matrix, embedder, cfg.train_config())
    ckpt = cfg.effective_checkpoint_path
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, ckpt)
    history_path = cfg.run_dir / TRAINING_HISTORY
    _write_json(history_path, history.to_json_dict())
    outcome = StageOutcome(
        stage="train",
        artifacts={CHECKPOINT: ckpt, TRAINING_HISTORY: history_path},
        info={
            "best_epoch": history.best_epoch,
            "initial_validation_loss": history.initial_validation_loss,
            "final_validation_loss": (history.epochs[-1]["validation_loss_mean"]
                                      if history.epochs else history.initial_validation_loss),
        },
    )
    _update_manifest(cfg, outcome)
    return outcome


def _pairwise_from_retriever(cfg: PipelineConfig, pool: Dataset,
                             test: Dataset) -> tuple[PairwiseDistanceSet, dict]:
    ckpt = cfg.effective_checkpoint_path
    if not ckpt.exists():
        raise UpstreamMissingError(
            f"missing retriever checkpoint {ckpt}: run `tripleforge train` first"
        )
    embedder = build_embedder(cfg)
    model = load_checkpoint(ckpt, embedder)
    pre_path = cfg.run_dir / PREEXTRACT
    if pre_path.exists():
        verbal, excluded = _verbalizations(_read_json(pre_path))
        included = set(verbal)
        pool_samples = [s for s in pool.samples if s.id in included]
    else:
        # cross-dataset checkpoints score a pool that was never pre-extracted
        excluded = []
        pool_samples = pool.samples
    P = compute_P(model, pool_samples, test.samples)
    return P, {"excluded_pool": excluded, "checkpoint": str(ckpt)}


def _pairwise_direct(cfg: PipelineConfig, pool: Dataset,
                     test: Dataset) -> tuple[PairwiseDistanceSet, dict]:
    """Pre-extract the test samples too and take triple-set distances
    straight into the pool-to-test matrix; no retriever involved."""
    pre_path = _require(cfg.run_dir / PREEXTRACT, "preextract")
    pool_verbal, excluded_pool = _verbalizations(_read_json(pre_path))

    gateway = build_gateway(cfg, [pool, test])
    test_artifact = _preextraction(cfg, gateway, test.samples, "test")
    _write_json(cfg.run_dir / PREEXTRACT_TEST, test_artifact)
    test_verbal, _ = _verbalizations(test_artifact)
    if not pool_verbal or not test_verbal:
        raise RuntimeError("direct distance mode needs non-empty pre-extractions on both sides")
    embedder = build_embedder(cfg)
    pool_embedded = embed_triple_sets(pool_verbal, embedder)
    test_embedded = embed_triple_sets(test_verbal, embedder)
    entries = set_distances(list(pool_embedded.values()), list(test_embedded.values()))
    P = PairwiseDistanceSet(tuple(pool_embedded), tuple(test_embedded), entries,
                            provider=f"direct/{embedder.name}")
    info = {
        "excluded_pool": excluded_pool,
        "excluded_test": test_artifact["excluded"],
        **_call_counts(gateway),
    }
    return P, info


def _select(cfg: PipelineConfig, P: PairwiseDistanceSet, schema: Optional[Schema],
            oracle: AnnotationOracle) -> SelectionResult:
    """Run the configured strategy, passing it the settings it takes by
    parameter name.  The function is looked up in this module's namespace
    rather than called from ``STRATEGIES``, so a wrapper installed on
    ``pipeline.select_<name>`` sees the call."""
    select = globals()[STRATEGIES[cfg.strategy].__name__]
    settings = {"P": P, "pool_ids": P.unlabeled_ids, "B": cfg.budget, "u": cfg.top_u,
                "seed": cfg.seed, "schema": schema, "oracle": oracle}
    params = inspect.signature(select).parameters
    if "schema" in params and schema is None:
        raise RuntimeError(f"{cfg.strategy} strategy needs a schema; "
                           "the pool file carries no labels")
    return select(**{name: settings[name] for name in params})


def stage_select(cfg: PipelineConfig) -> StageOutcome:
    """Compute the pool-to-test distances, run the configured strategy, and
    annotate the chosen samples through the oracle."""
    pool = load_dataset(cfg.pool_path, "train")
    test = load_dataset(cfg.test_path, "test")
    if cfg.distance_source == "retriever":
        P, info = _pairwise_from_retriever(cfg, pool, test)
    else:
        P, info = _pairwise_direct(cfg, pool, test)
    pairwise_path = cfg.run_dir / PAIRWISE
    P.save(pairwise_path)

    oracle = AnnotationOracle(pool.gold)
    result = _select(cfg, P, pool.schema, oracle)

    annotations = {sid: oracle.annotate(sid).triples.to_list() for sid in result.chosen}
    artifact = result.to_json_dict()
    artifact.update({
        "kind": "selection",
        "distance_source": cfg.distance_source,
        "u": cfg.top_u,
        "annotations": annotations,
        "oracle": {"checked": oracle.checked_count, "annotated": oracle.annotated_count},
    })
    selection_path = cfg.run_dir / SELECTION
    _write_json(selection_path, artifact)

    artifacts = {PAIRWISE: pairwise_path, SELECTION: selection_path}
    if cfg.distance_source == "direct":
        artifacts[PREEXTRACT_TEST] = cfg.run_dir / PREEXTRACT_TEST
    outcome = StageOutcome(
        stage="select",
        artifacts=artifacts,
        info={**info, "strategy": cfg.strategy, "budget": cfg.budget,
              "chosen": list(result.chosen),
              "checked_count": result.checked_count,
              "annotated_count": oracle.annotated_count},
    )
    _update_manifest(cfg, outcome)
    return outcome


def stage_run(cfg: PipelineConfig) -> StageOutcome:
    """Render one shared demonstration set for every test sample, query the
    model, and parse the outputs."""
    selection_path = _require(cfg.run_dir / SELECTION, "select")
    pairwise_path = _require(cfg.run_dir / PAIRWISE, "select")
    selection = _read_json(selection_path)
    P = PairwiseDistanceSet.load(pairwise_path)
    pool = load_dataset(cfg.pool_path, "train")
    test = load_dataset(cfg.test_path, "test")

    samples_by_id = pool.sample_by_id()
    gold_by_id = {sid: TripleSet.from_list(raw) for sid, raw in selection["annotations"].items()}
    demos = order_demonstrations(
        selection["chosen"], P, samples_by_id, gold_by_id,
        most_similar_last=(cfg.demo_order == "similar-last"),
    )

    fmt = PromptFormat.parse(cfg.format)
    gateway = build_gateway(cfg, [pool, test])
    outputs: dict[str, str] = {}
    predictions: dict[str, list] = {}
    diagnostics: dict[str, list] = {}
    skipped_total = 0
    texts = _complete_all(cfg, gateway, render_few_shot(fmt, demos, test.samples))
    for sample, text in zip(test.samples, texts):
        parsed = parse_output(fmt, text, sample.text)
        outputs[sample.id] = text
        predictions[sample.id] = parsed.triples.to_list()
        if parsed.diagnostics:
            diagnostics[sample.id] = [list(d) for d in parsed.diagnostics]
        skipped_total += parsed.skipped_rows

    outputs_path = cfg.run_dir / OUTPUTS
    _write_json(outputs_path, {
        "kind": "outputs",
        "format": fmt.value,
        "model_id": cfg.model_id,
        "outputs": outputs,
    })
    predictions_path = cfg.run_dir / PREDICTIONS
    _write_json(predictions_path, {
        "kind": "predictions",
        "format": fmt.value,
        "predictions": predictions,
        "parse_skipped_rows": skipped_total,
        "diagnostics": diagnostics,
    })
    outcome = StageOutcome(
        stage="run",
        artifacts={OUTPUTS: outputs_path, PREDICTIONS: predictions_path},
        info={
            "test_size": len(test.samples),
            "demonstrations": len(demos),
            "parse_skipped_rows": skipped_total,
            **_call_counts(gateway),
        },
    )
    _update_manifest(cfg, outcome)
    return outcome


def stage_eval(cfg: PipelineConfig) -> StageOutcome:
    """Strict micro F1 of the parsed predictions against the test gold."""
    predictions_path = _require(cfg.run_dir / PREDICTIONS, "run")
    raw = _read_json(predictions_path)
    test = load_dataset(cfg.test_path, "test")
    predictions = {sid: TripleSet.from_list(ts) for sid, ts in raw["predictions"].items()}
    report = micro_f1(predictions, test.gold_triples(),
                      parse_skipped_rows=raw.get("parse_skipped_rows", 0))
    json_path = cfg.run_dir / EVAL_JSON
    _write_json(json_path, report.to_json_dict())
    txt_path = cfg.run_dir / EVAL_TXT
    txt_path.write_text(report.to_table_text(), encoding="utf-8")
    outcome = StageOutcome(
        stage="eval",
        artifacts={EVAL_JSON: json_path, EVAL_TXT: txt_path},
        info={"precision": report.precision, "recall": report.recall, "f1": report.f1},
    )
    _update_manifest(cfg, outcome)
    return outcome


def stage_cost(cfg: PipelineConfig) -> StageOutcome:
    """Character-count cost report over the raw model outputs."""
    outputs_path = _require(cfg.run_dir / OUTPUTS, "run")
    raw = _read_json(outputs_path)
    ordered = [raw["outputs"][sid] for sid in sorted(raw["outputs"])]
    report = cost_report(ordered)
    json_path = cfg.run_dir / COST_JSON
    _write_json(json_path, report.to_json_dict())
    txt_path = cfg.run_dir / COST_TXT
    txt_path.write_text(report.to_table_text(), encoding="utf-8")
    outcome = StageOutcome(
        stage="cost",
        artifacts={COST_JSON: json_path, COST_TXT: txt_path},
        info=report.to_json_dict(),
    )
    _update_manifest(cfg, outcome)
    return outcome


STAGES = {
    "preextract": stage_preextract,
    "distances": stage_distances,
    "train": stage_train,
    "select": stage_select,
    "run": stage_run,
    "eval": stage_eval,
    "cost": stage_cost,
}
