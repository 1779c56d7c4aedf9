import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import tripleforge
from tripleforge import cli, core
from tripleforge.config import (
    CHOICES,
    ConfigError,
    PipelineConfig,
    apply_overrides,
    load_config,
)
from tripleforge.core import TripleSet
from tripleforge.gateway import (
    CACHE_LOG,
    LlmGateway,
    MockEchoGoldProvider,
    TransientProviderError,
)
from tripleforge.pipeline import (
    COST_JSON,
    EVAL_JSON,
    MANIFEST,
    PAIRWISE,
    PREEXTRACT,
    PREEXTRACT_TEST,
    SELECTION,
    STAGES,
    UpstreamMissingError,
    stage_distances,
    stage_eval,
    stage_preextract,
    stage_run,
    stage_select,
    stage_train,
)
from tripleforge.retriever import TrainConfig
from tripleforge.similarity import PoolDistanceMatrix

from conftest import DATA_DIR

ALL_STAGES = ("preextract", "distances", "train", "select", "run", "eval", "cost")

# sha256 of (retriever.ckpt, training_history.json) after preextract,
# distances and train on the mini fixture with the ``run_config`` defaults,
# taken with the unfused loop that ``reference_train`` keeps, so they also
# hold the fused step to it across the whole stage.  The weights go through
# BLAS matmuls, so their bits depend on the kernel family OpenBLAS picks for
# the CPU; each family's pair was taken by forcing it with OPENBLAS_CORETYPE.
TRAINING_SHA256 = {
    "SkylakeX": ("aa9b0eb9ea5225906c3ade1710ddcebcc42394a7900ff7a0c1bd35541fb94c24",
                 "ac19105176e2c5dafc83e4d629a73387a8d9e26094059b8a2685ec4e4da89981"),
    "Haswell": ("b94ae0b211103eb821590dab3ca470db13906194d2d6b80d8c00424c1a41a923",
                "318b4f7b6185b55bafa145b8c6f4c214fa3c14f21658348a604e05e06578e0f2"),
    "Sandybridge": ("b24e1a3ab6e94745c9ba9f8ef9638eb0a2e8669a0f066e36801e76690ebad12f",
                    "06461d8dfbd0f6bca986b27e78bdedd7509032bff86c2868ad1170689d9bedd4"),
    "Nehalem": ("2928a34ff2c2440f9e9412e2e36de46e4379b13bee06da7322921204edae7a4b",
                "06461d8dfbd0f6bca986b27e78bdedd7509032bff86c2868ad1170689d9bedd4"),
    "Katmai": ("b5a40ed675b30add2ea597e10960677ea898ccf97249bf40de70886df792239a",
               "06461d8dfbd0f6bca986b27e78bdedd7509032bff86c2868ad1170689d9bedd4"),
}
OPENBLAS_X86_64 = (
    platform.machine().lower() in ("x86_64", "amd64")
    and "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
)
# the /proc/cpuinfo flags each forced family needs; OpenBLAS falls back to
# an older family when one is missing, so that family cannot be checked here
KERNEL_FAMILY_FLAGS = {
    "SkylakeX": {"avx512f", "avx512dq", "avx512cd", "avx512bw", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"ssse3", "sse4_1", "sse4_2"},
    "Katmai": {"sse"},
}


def cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.partition(":")[2].split()) for line in lines
                 if line.startswith("flags")), set())


# preextract, distances and train for the pickled config on stdin; prints the
# sha256 of (retriever.ckpt, training_history.json)
TRAIN_IN_CHILD = """
import hashlib, json, pickle, sys
from tripleforge.pipeline import STAGES
cfg = pickle.loads(sys.stdin.buffer.read())
for name in ("preextract", "distances", "train"):
    STAGES[name](cfg)
print(json.dumps([hashlib.sha256((cfg.run_dir / name).read_bytes()).hexdigest()
                  for name in ("retriever.ckpt", "training_history.json")]))
"""


# all seven stages for the pickled config on stdin; prints the modules of the
# HTTP client that the process imported
OFFLINE_IN_CHILD = """
import json, pickle, sys
from tripleforge.pipeline import STAGES
cfg = pickle.loads(sys.stdin.buffer.read())
for stage in STAGES.values():
    stage(cfg)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("requests", "urllib3"))))
"""


def run_in_child(script: str, cfg, **env):
    """The JSON that ``script`` prints when run on the pickled ``cfg`` in a
    child process, with ``env`` added to this one's environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(tripleforge.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(cfg),
                           capture_output=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr.decode(errors="replace")
    return json.loads(child.stdout)


def train_under_kernel_family(cfg, family: str) -> tuple[str, str]:
    """The training digests of ``cfg`` from a child process whose OpenBLAS
    is forced to ``family`` and one thread; this process is left as it is."""
    return tuple(run_in_child(TRAIN_IN_CHILD, cfg, OPENBLAS_CORETYPE=family,
                              OPENBLAS_NUM_THREADS="1"))


def run_all(cfg):
    return {name: STAGES[name](cfg) for name in ALL_STAGES}


class TestFullPipeline:
    def test_echo_gold_coverage_reaches_perfect_f1(self, run_config):
        cfg = run_config(strategy="coverage", budget=4)
        outcomes = run_all(cfg)
        report = json.loads((cfg.run_dir / EVAL_JSON).read_text())
        assert report["f1"] == 1.0
        assert outcomes["select"].info["annotated_count"] <= 4

    def test_replay_is_byte_identical_with_zero_calls(self, run_config):
        cfg = run_config()
        run_all(cfg)
        artifact_names = [
            "preextract.json", "pool_distances.npz", "retriever.ckpt",
            "pairwise_distances.npz", "selection.json", "outputs.json",
            "predictions.json", "eval_report.json", "eval_report.txt",
            "cost_report.json", "cost_report.txt",
        ]
        before = {n: (cfg.run_dir / n).read_bytes() for n in artifact_names}
        outcomes = run_all(cfg)
        after = {n: (cfg.run_dir / n).read_bytes() for n in artifact_names}
        assert before == after
        assert outcomes["preextract"].info["llm_calls"] == 0
        assert outcomes["run"].info["llm_calls"] == 0

    def test_cold_runs_write_the_same_log_lines_and_artifacts(self, run_config, tmp_path):
        # with concurrency > 1 the completion log's lines land in the order
        # the workers finish, so two cold runs agree on its lines as a set
        runs = [run_config(run_dir=tmp_path / name, concurrency=4) for name in ("a", "b")]
        for cfg in runs:
            run_all(cfg)
        logs = [sorted((cfg.effective_cache_dir / CACHE_LOG).read_bytes().splitlines())
                for cfg in runs]
        assert logs[0] == logs[1] and len(logs[0]) == 28  # 20 pool + 8 test prompts
        artifacts = [{p.name: p.read_bytes() for p in cfg.run_dir.iterdir()
                      if p.is_file() and p.name != MANIFEST} for cfg in runs]
        assert artifacts[0] == artifacts[1] and len(artifacts[0]) == 12

    @pytest.mark.skipif(not OPENBLAS_X86_64,
                        reason="digests are known for numpy's OpenBLAS kernels on x86-64 only")
    def test_training_artifacts_pinned(self, run_config):
        # any change to the bits of a training step moves both digests
        cfg = run_config()
        for name in ("preextract", "distances", "train"):
            STAGES[name](cfg)
        digests = tuple(hashlib.sha256((cfg.run_dir / name).read_bytes()).hexdigest()
                        for name in ("retriever.ckpt", "training_history.json"))
        assert digests in TRAINING_SHA256.values()

    @pytest.mark.skipif(not OPENBLAS_X86_64,
                        reason="digests are known for numpy's OpenBLAS kernels on x86-64 only")
    @pytest.mark.parametrize("family", sorted(TRAINING_SHA256))
    def test_each_kernel_family_reproduces_its_own_pin(self, run_config, family):
        missing = KERNEL_FAMILY_FLAGS[family] - cpu_flags()
        if missing:
            pytest.skip(f"the CPU lacks {sorted(missing)} for {family}")
        assert train_under_kernel_family(run_config(), family) == TRAINING_SHA256[family]

    def test_preextraction_equals_gold_modulo_spans(self, run_config, pool_dataset):
        cfg = run_config()
        stage_preextract(cfg)
        artifact = json.loads((cfg.run_dir / PREEXTRACT).read_text())
        for sid, ann in pool_dataset.gold.items():
            got = TripleSet.from_list(artifact["samples"][sid]["triples"])
            expected = {(t.predicate, t.subject_type, t.subject, t.object_type, t.object)
                        for t in ann.triples}
            assert {(t.predicate, t.subject_type, t.subject, t.object_type, t.object)
                    for t in got} == expected
        assert artifact["excluded"] == []

    def test_empty_extraction_sample_is_excluded(self, run_config, tmp_path):
        # a pool sample with no gold triples: the echo mock returns nothing
        src = (DATA_DIR / "train.jsonl").read_text(encoding="utf-8")
        extra = {"id": "x99", "text": "Nothing happens in this sentence .", "triples": []}
        pool = tmp_path / "train.jsonl"
        pool.write_text(src + json.dumps(extra) + "\n", encoding="utf-8")
        cfg = run_config(pool_path=pool)
        stage_preextract(cfg)
        artifact = json.loads((cfg.run_dir / PREEXTRACT).read_text())
        assert artifact["excluded"] == ["x99"]
        stage_distances(cfg)
        matrix = PoolDistanceMatrix.load(cfg.run_dir / "pool_distances.npz")
        assert matrix.n == 20 and "x99" not in matrix.sample_ids
        # the excluded sample never becomes a candidate downstream
        stage_train(cfg)
        stage_select(cfg)
        selection = json.loads((cfg.run_dir / SELECTION).read_text())
        assert "x99" not in selection["chosen"]

    def test_distances_need_a_pool_sample_with_triples(self, run_config, tmp_path):
        pool = tmp_path / "train.jsonl"
        pool.write_text('{"id": "a", "text": "Nothing happens ."}\n'
                        '{"id": "b", "text": "Nor here ."}\n', encoding="utf-8")
        cfg = run_config(pool_path=pool)
        stage_preextract(cfg)
        with pytest.raises(RuntimeError, match="no pool samples with pre-extracted triples"):
            stage_distances(cfg)

    def test_balance_on_an_unlabeled_pool_is_refused(self, run_config, tmp_path):
        # the pool carries no labels, but its sentences are the test split's,
        # whose gold the echo mock answers with, so every one pre-extracts
        test = core.load_dataset(DATA_DIR / "test.jsonl", "test")
        pool = tmp_path / "unlabeled.jsonl"
        pool.write_text("".join(json.dumps({"id": f"u{s.id}", "text": s.text}) + "\n"
                                for s in test.samples), encoding="utf-8")
        cfg = run_config(pool_path=pool, strategy="balance", distance_source="direct")
        stage_preextract(cfg)
        with pytest.raises(RuntimeError, match="balance strategy needs a schema"):
            stage_select(cfg)

    @pytest.mark.parametrize("stage, distance_source, producer", [
        ("distances", "retriever", "preextract"),
        ("train", "retriever", "distances"),
        ("select", "retriever", "train"),
        ("select", "direct", "preextract"),
        ("run", "retriever", "select"),
        ("eval", "retriever", "run"),
        ("cost", "retriever", "run"),
    ], ids=["distances", "train", "select", "select-direct", "run", "eval", "cost"])
    def test_missing_upstream_artifacts_name_the_producer(self, run_config, stage,
                                                          distance_source, producer):
        cfg = run_config(distance_source=distance_source)
        with pytest.raises(UpstreamMissingError, match=f"`tripleforge {producer}`"):
            STAGES[stage](cfg)
        assert not (cfg.run_dir / MANIFEST).exists()

    def test_stages_register_in_pipeline_order(self):
        assert tuple(STAGES) == ALL_STAGES
        for name, fn in STAGES.items():
            assert fn.__name__ == f"stage_{name}" and fn.__doc__

    @pytest.mark.parametrize("distance_source, extra", [
        ("retriever", set()), ("direct", {PREEXTRACT_TEST}),
    ])
    def test_select_manifest_entry_lists_exactly_its_artifacts(self, run_config,
                                                              distance_source, extra):
        cfg = run_config(distance_source=distance_source)
        stages = ALL_STAGES[:4] if distance_source == "retriever" else ("preextract", "select")
        for name in stages:
            outcome = STAGES[name](cfg)
        manifest = json.loads((cfg.run_dir / MANIFEST).read_text())
        artifacts = manifest["stages"]["select"]["artifacts"]
        assert set(artifacts) == set(outcome.artifacts) == {PAIRWISE, SELECTION} | extra
        for name, entry in artifacts.items():
            assert entry["path"] == name

    def test_manifest_paths_are_relative_to_run_dir(self, run_config, tmp_path):
        # a checkpoint outside run_dir is reached through "..", in the
        # artifact paths and the config block alike
        ckpt = tmp_path / "models" / "r.ckpt"
        cfg = run_config(checkpoint_path=ckpt)
        for name in ALL_STAGES[:3]:
            STAGES[name](cfg)
        manifest = json.loads((cfg.run_dir / MANIFEST).read_text())
        paths = {name: entry["path"] for stage in manifest["stages"].values()
                 for name, entry in stage["artifacts"].items()}
        assert paths == {PREEXTRACT: PREEXTRACT, "pool_distances.npz": "pool_distances.npz",
                         "training_history.json": "training_history.json",
                         "r.ckpt": "../models/r.ckpt"}
        assert manifest["config"]["checkpoint_path"] == "../models/r.ckpt"

    def test_config_block_does_not_depend_on_where_the_run_sits(self, tmp_path):
        # one config file and dataset copy, in two directories of different depth
        blocks = []
        for base in (tmp_path / "a", tmp_path / "b" / "deeper" / "still"):
            (base / "data").mkdir(parents=True)
            for name in ("train.jsonl", "test.jsonl"):
                (base / "data" / name).write_bytes((DATA_DIR / name).read_bytes())
            (base / "run.cfg").write_text("pool_path = data/train.jsonl\n"
                                          "test_path = data/test.jsonl\nrun_dir = out\n")
            cfg = load_config(base / "run.cfg")
            STAGES["preextract"](cfg)
            blocks.append(json.loads((cfg.run_dir / MANIFEST).read_text())["config"])
        assert blocks[0] == blocks[1]
        paths = ("pool_path", "run_dir", "cache_dir", "checkpoint_path")
        assert [blocks[0][k] for k in paths] == [
            "../data/train.jsonl", ".", "cache", "retriever.ckpt"]

    def test_an_offline_run_never_imports_requests(self, run_config):
        # in a child process: this one imports requests for tests/test_similarity.py
        cfg = run_config()
        assert (cfg.provider, cfg.embedder) == ("mock", "hash")
        assert run_in_child(OFFLINE_IN_CHILD, cfg) == []
        manifest = json.loads((cfg.run_dir / MANIFEST).read_text())
        assert set(manifest["stages"]) == set(ALL_STAGES)

    def test_run_stage_never_holds_every_full_prompt(self, run_config, tmp_path,
                                                     monkeypatch):
        # long demonstrations and a few hundred queries, so that the full
        # prompts, shared block and all, outweigh the rest of the stage
        def records(name):
            lines = (DATA_DIR / name).read_text(encoding="utf-8").splitlines()
            return lines[0], [json.loads(line) for line in lines[1:]]

        header, pool = records("train.jsonl")
        for record in pool:
            record["text"] += " and so on" * 200
        _, mini_test = records("test.jsonl")
        test = [dict(r, id=f"{r['id']}-{i}", text=f"{r['text']} ({i})")
                for i in range(40) for r in mini_test]
        for name, rows in (("pool.jsonl", pool), ("test.jsonl", test)):
            (tmp_path / name).write_text(
                "\n".join([header, *map(json.dumps, rows)]) + "\n", encoding="utf-8")
        cfg = run_config(pool_path=tmp_path / "pool.jsonl", test_path=tmp_path / "test.jsonl",
                         distance_source="direct", strategy="topk", budget=12)
        for name in ("preextract", "select"):
            STAGES[name](cfg)

        prompt_chars = []
        complete = LlmGateway.complete
        monkeypatch.setattr(LlmGateway, "complete", lambda gw, request: (
            prompt_chars.append(len(request.prompt)) or complete(gw, request)))
        tracemalloc.start()
        try:
            STAGES["run"](cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(prompt_chars) == len(test) >= 300 and min(prompt_chars) > 20_000
        assert peak < sum(prompt_chars) / 2, (peak, sum(prompt_chars))

    def test_manifest_records_stages_and_hashes(self, run_config):
        cfg = run_config()
        run_all(cfg)
        manifest = json.loads((cfg.run_dir / MANIFEST).read_text())
        assert set(manifest["stages"]) == set(ALL_STAGES)
        entry = manifest["stages"]["preextract"]["artifacts"][PREEXTRACT]
        import hashlib
        assert entry["sha256"] == hashlib.sha256(
            (cfg.run_dir / PREEXTRACT).read_bytes()).hexdigest()
        assert manifest["config"]["budget"] == cfg.budget

    def test_manifest_states_the_run_identity_once(self, run_config):
        # seed, provider and model_id live in the config block only
        cfg = run_config(seed=7)
        run_all(cfg)
        manifest = json.loads((cfg.run_dir / MANIFEST).read_text())
        assert set(manifest) == {"config", "stages"}
        assert (manifest["config"]["seed"], manifest["config"]["provider"],
                manifest["config"]["model_id"]) == (7, cfg.provider, cfg.model_id)

    def test_manifest_records_retries_and_unreadable_entries(self, run_config,
                                                             monkeypatch):
        cfg = run_config(distance_source="direct", strategy="topk", budget=3,
                         backoff_base=0.0, concurrency=1)
        stages = ("preextract", "select", "run")
        for name in stages:
            STAGES[name](cfg)
        # strip the text from every logged entry, so each lookup is an
        # unreadable entry, and fail each regenerated prompt's first attempt
        log = cfg.effective_cache_dir / CACHE_LOG
        log.write_bytes(b"".join(line[:65] + b"{}\n"
                                 for line in log.read_bytes().splitlines()))
        generate = MockEchoGoldProvider.generate
        failed = set()

        def flaky(self, request):
            if request.prompt not in failed:
                failed.add(request.prompt)
                raise TransientProviderError("HTTP 503", status=503)
            return generate(self, request)

        monkeypatch.setattr(MockEchoGoldProvider, "generate", flaky)
        for name in stages:
            STAGES[name](cfg)

        info = {name: entry["info"] for name, entry in
                json.loads((cfg.run_dir / MANIFEST).read_text())["stages"].items()}
        sizes = {"preextract": info["preextract"]["pool_size"],
                 "select": info["run"]["test_size"], "run": info["run"]["test_size"]}
        for name in stages:
            n = sizes[name]
            assert info[name]["unreadable_cache_entries"] == n
            assert info[name]["retries"] == n
            assert info[name]["llm_calls"] == 2 * n
            assert info[name]["cache_hits"] == 0

    def test_direct_mode_needs_no_checkpoint(self, run_config):
        cfg = run_config(distance_source="direct", strategy="topk", budget=3)
        stage_preextract(cfg)
        outcome = stage_select(cfg)  # train was never run
        assert (cfg.run_dir / PREEXTRACT_TEST).exists()
        # the test pre-extraction is a select artifact, hashed in the manifest
        manifest = json.loads((cfg.run_dir / MANIFEST).read_text())
        entry = manifest["stages"]["select"]["artifacts"][PREEXTRACT_TEST]
        assert entry["sha256"] == hashlib.sha256(
            (cfg.run_dir / PREEXTRACT_TEST).read_bytes()).hexdigest()
        assert len(outcome.info["chosen"]) == 3
        run_outcome = stage_run(cfg)
        stage_eval(cfg)
        report = json.loads((cfg.run_dir / EVAL_JSON).read_text())
        assert report["f1"] == 1.0

    def test_select_into_a_fresh_run_dir_with_an_outside_checkpoint(self, run_config, tmp_path):
        # a checkpoint trained elsewhere scores a pool never pre-extracted
        # here, so select is the first stage to write into its run_dir
        trained = run_config(run_dir=tmp_path / "a")
        for name in ("preextract", "distances", "train"):
            STAGES[name](trained)
        cfg = run_config(run_dir=tmp_path / "b",
                         checkpoint_path=trained.effective_checkpoint_path)
        assert not cfg.run_dir.exists()
        outcome = stage_select(cfg)
        assert sorted(outcome.artifacts) == [PAIRWISE, SELECTION]
        stage_run(cfg)
        stage_eval(cfg)
        assert json.loads((cfg.run_dir / EVAL_JSON).read_text())["f1"] == 1.0

    def test_balance_checked_exceeds_annotated(self, run_config):
        cfg = run_config(strategy="balance", budget=5)
        for name in ("preextract", "distances", "train"):
            STAGES[name](cfg)
        outcome = stage_select(cfg)
        selection = json.loads((cfg.run_dir / SELECTION).read_text())
        assert selection["oracle"]["annotated"] <= 5
        assert selection["oracle"]["checked"] >= selection["oracle"]["annotated"]
        assert len(selection["chosen"]) == 5
        # every relation present given quota 1 each over 5 relations
        assert set(selection["per_relation_tallies"]) == {
            "Kill", "Live_In", "Located_In", "OrgBased_In", "Work_For"}

    def test_every_grammar_runs_end_to_end(self, run_config, tmp_path):
        # the echo mock answers with the gold triples, so the cost stage
        # measures each grammar's serialization of the same test gold: the
        # paper's claim is that the table is the cheapest and the code the dearest
        total_chars = {}
        for fmt in ("tableie", "textie", "codeie"):
            cfg = run_config(format=fmt, run_dir=tmp_path / f"run-{fmt}")
            run_all(cfg)
            report = json.loads((cfg.run_dir / EVAL_JSON).read_text())
            assert report["f1"] == 1.0, fmt
            total_chars[fmt] = json.loads((cfg.run_dir / COST_JSON).read_text())["total_chars"]
        assert total_chars["tableie"] < total_chars["textie"] < total_chars["codeie"], total_chars

    @pytest.mark.parametrize("fmt", ["tableie", "textie", "codeie"])
    def test_json_artifacts_keep_the_json_dumps_layout(self, run_config, tmp_path, fmt):
        # every JSON artifact and the manifest are what one compact json.dumps
        # call with these options writes, plus one trailing newline
        cfg = run_config(format=fmt, run_dir=tmp_path / f"run-{fmt}")
        run_all(cfg)
        paths = sorted(cfg.run_dir.glob("*.json"))
        assert len(paths) == 8 and cfg.run_dir / MANIFEST in paths
        for path in paths:
            text = path.read_text(encoding="utf-8")
            want = json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False,
                              separators=(",", ":"))
            assert text == want + "\n", path.name

    def test_random_strategy(self, run_config):
        cfg = run_config(strategy="random", budget=3, seed=11)
        run_all(cfg)
        selection = json.loads((cfg.run_dir / SELECTION).read_text())
        assert len(selection["chosen"]) == 3 and selection["seed"] == 11

    def test_dataset_memo_changes_no_artifact(self, run_config, tmp_path, monkeypatch):
        # every stage of two combos, first with the parse memo, then with it
        # emptied before every stage: the manifests must record equal sha256s
        parsed = []
        parse = core._parse_dataset
        monkeypatch.setattr(core, "_PARSED", OrderedDict())
        monkeypatch.setattr(core, "_parse_dataset",
                            lambda path, split, data: parsed.append(path.name) or parse(path, split, data))
        combos = (dict(strategy="coverage", budget=4),
                  dict(format="codeie", strategy="balance", budget=5))

        def digests(tag, clear):
            found = []
            for k, combo in enumerate(combos):
                cfg = run_config(run_dir=tmp_path / tag / str(k), **combo)
                for name in ALL_STAGES:
                    if clear:
                        core._PARSED.clear()
                    STAGES[name](cfg)
                stages = json.loads((cfg.run_dir / MANIFEST).read_text())["stages"]
                found.append({(stage, name): artifact["sha256"]
                              for stage, entry in stages.items()
                              for name, artifact in entry["artifacts"].items()})
            return found

        with_memo = digests("memo", clear=False)
        assert sorted(parsed) == ["test.jsonl", "train.jsonl"]
        assert digests("cleared", clear=True) == with_memo
        assert len(parsed) > 2 * len(combos) and all(len(d) > len(ALL_STAGES) for d in with_memo)

    def test_demo_order_flip_changes_prompt_not_f1(self, run_config, tmp_path):
        cfg1 = run_config(run_dir=tmp_path / "a", demo_order="similar-last")
        cfg2 = run_config(run_dir=tmp_path / "b", demo_order="similar-first")
        run_all(cfg1)
        run_all(cfg2)
        f1_a = json.loads((cfg1.run_dir / EVAL_JSON).read_text())["f1"]
        f1_b = json.loads((cfg2.run_dir / EVAL_JSON).read_text())["f1"]
        assert f1_a == f1_b == 1.0


class TestConfig:
    def write(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body, encoding="utf-8")
        return path

    def test_parse_and_relative_paths(self, tmp_path):
        path = self.write(tmp_path, (
            "pool_path = pool.jsonl\n"
            "test_path = test.jsonl\n"
            "run_dir = out\n"
            "budget = 7  # inline comment\n"
            "learning_rate = 2e-5\n"
            "\n"
            "# full-line comment\n"
            "strategy = balance\n"
        ))
        cfg = load_config(path)
        assert cfg.pool_path == (tmp_path / "pool.jsonl").resolve()
        assert cfg.budget == 7 and cfg.strategy == "balance"
        assert cfg.learning_rate == 2e-5

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = self.write(tmp_path, "buget = 5\n")
        with pytest.raises(ConfigError, match=":1:.*buget"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "budget = lots\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_line_without_equals_rejected_with_line(self, tmp_path):
        path = self.write(tmp_path, "budget = 5\nstrategy topk\n")
        with pytest.raises(ConfigError, match="run.cfg:2: expected 'key = value'"):
            load_config(path)

    @pytest.mark.parametrize("key", ["pool_path", "test_path", "run_dir"])
    def test_empty_required_path_rejected_with_line(self, tmp_path, key):
        path = self.write(tmp_path, f"budget = 5\n{key} =\n")
        with pytest.raises(ConfigError, match=f"run.cfg:2: bad value for '{key}': empty path"):
            load_config(path)

    def test_empty_optional_path_means_the_default(self, tmp_path):
        cfg = load_config(self.write(tmp_path, "run_dir = out\ncache_dir =\ncheckpoint_path =\n"))
        assert cfg.effective_cache_dir == (tmp_path / "out" / "cache").resolve()
        assert cfg.effective_checkpoint_path == (tmp_path / "out" / "retriever.ckpt").resolve()

    def test_overrides(self):
        cfg = PipelineConfig(budget=5, strategy="topk")
        out = apply_overrides(cfg, budget=9, strategy=None)
        assert out.budget == 9 and out.strategy == "topk"

    def test_validation(self):
        with pytest.raises(ConfigError, match="strategy"):
            PipelineConfig(strategy="best-effort")
        with pytest.raises(ConfigError, match="provider"):
            PipelineConfig(provider="llm")

    @pytest.mark.parametrize("key", ["demo_order", "distance_source", "embedder", "format",
                                     "provider", "strategy"])
    def test_choice_settings_checked_against_one_table(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be one of .*, got 'bogus'"):
            PipelineConfig(**{key: "bogus"})
        for value in CHOICES[key]:
            assert getattr(PipelineConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("key", ["strategy", "distance_source", "provider", "format"])
    def test_cli_flags_offer_the_table_choices(self, key, capsys):
        flag = "--" + key.replace("_", "-")
        parser = cli._build_parser()
        for value in CHOICES[key]:
            assert getattr(parser.parse_args(["select", "--config", "c", flag, value]), key) == value
        with pytest.raises(SystemExit):
            parser.parse_args(["select", "--config", "c", flag, "bogus"])

    def test_format_and_embedder_validated_before_any_stage(self, tmp_path):
        # both are read only by later stages, after preextract's provider calls
        with pytest.raises(ConfigError, match="format must be one of .*, got 'bogus'"):
            PipelineConfig(format="bogus")
        with pytest.raises(ConfigError, match="embedder"):
            PipelineConfig(embedder="nope")
        with pytest.raises(ConfigError, match="embedder"):
            load_config(self.write(tmp_path, "provider = real\nembedder = nope\n"))
        assert PipelineConfig(format="codeie", embedder="http").format == "codeie"

    @pytest.mark.parametrize("setting, value, message", [
        ("concurrency", 0, "concurrency must be >= 1"),
        ("top_u", 0, "top_u must be >= 1"),
        ("retry_attempts", 0, "retry_attempts must be >= 1"),
        ("embedding_dim", 0, "embedding_dim must be >= 1"),
        ("batch_size", 0, "batch_size >= 1"),
        ("learning_rate", -1.0, "learning_rate > 0"),
        ("epochs", -1, "epochs >= 0"),
        ("validation_fraction", 2.0, "validation_fraction"),
        ("learning_rate", float("nan"), "learning_rate > 0 and finite"),
        ("learning_rate", float("inf"), "learning_rate > 0 and finite"),
        ("weight_decay", -0.01, "weight_decay must be >= 0"),
        ("weight_decay", float("nan"), "weight_decay must be >= 0"),
        ("max_pairs", -1, "max_pairs must be >= 0"),
        ("backoff_base", -0.5, "backoff_base must be >= 0"),
        ("backoff_base", float("nan"), "backoff_base must be >= 0"),
    ])
    def test_numeric_settings_validated_before_any_stage(self, tmp_path, setting, value,
                                                         message):
        # rejected when the config is built, before preextract's provider
        # calls; a negative or NaN backoff would reach time.sleep on the
        # first retry, in the middle of a stage
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**{setting: value})
        with pytest.raises(ConfigError, match=message):
            load_config(self.write(tmp_path, f"{setting} = {value}\n"))
        with pytest.raises(ConfigError, match=message):
            apply_overrides(PipelineConfig(), **{setting: value})

    def test_train_config_mirrors_the_settings(self):
        cfg = PipelineConfig(epochs=0, batch_size=3, learning_rate=0.5, seed=7,
                             validation_fraction=0.25, weight_decay=0.0, max_pairs=9)
        assert asdict(cfg.train_config()) == dict(
            epochs=0, batch_size=3, learning_rate=0.5, validation_fraction=0.25, seed=7,
            weight_decay=0.0, max_pairs=9)

    def test_training_defaults_are_train_configs(self):
        assert PipelineConfig().train_config() == TrainConfig()

    def test_default_cache_dir_under_run_dir(self):
        cfg = PipelineConfig(run_dir=Path("/tmp/r"))
        assert cfg.effective_cache_dir == Path("/tmp/r/cache")


class TestConfigComments:
    def write(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body, encoding="utf-8")
        return path

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = self.write(tmp_path, "endpoint_url = http://h/v1#x\nmodel_id = m#2\n")
        cfg = load_config(path)
        assert cfg.endpoint_url == "http://h/v1#x" and cfg.model_id == "m#2"

    def test_hash_after_whitespace_starts_a_comment(self, tmp_path):
        path = self.write(tmp_path, (
            "endpoint_url = http://h/v1#x # note\n"
            "budget = 7\t# tab before the hash\n"
            "#strategy = topk\n"
        ))
        cfg = load_config(path)
        assert cfg.endpoint_url == "http://h/v1#x" and cfg.budget == 7
        assert cfg.strategy == "coverage"


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            f"pool_path = {DATA_DIR / 'train.jsonl'}\n"
            f"test_path = {DATA_DIR / 'test.jsonl'}\n"
            "run_dir = run\n"
            "budget = 4\n"
            "epochs = 2\n"
            "learning_rate = 0.001\n",
            encoding="utf-8",
        )
        return path

    def test_all_stages_via_cli(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        for stage in ALL_STAGES:
            assert cli.main([stage, "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "eval_report.json" in out and "f1: 1.0" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli.main(["preextract", "--config", str(config)]) == 0
        assert cli.main(["distances", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(["select", "--config", str(config),
                         "--strategy", "topk", "--budget", "2"]) == 0
        selection = json.loads((tmp_path / "run" / SELECTION).read_text())
        assert selection["strategy"] == "topk" and len(selection["chosen"]) == 2

    def test_help_lists_the_stages_in_order_with_their_docstrings(self, capsys,
                                                                  monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        listed = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()
                  if line.startswith("    ")]
        assert listed == [[name, fn.__doc__.strip().splitlines()[0]]
                          for name, fn in STAGES.items()]
        assert [name for name, _ in listed] == list(ALL_STAGES)

    def test_missing_upstream_is_exit_code_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli.main(["eval", "--config", str(config)]) == 2
        assert "tripleforge run" in capsys.readouterr().err

    def test_other_errors_are_exit_code_1(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        with config.open("a", encoding="utf-8") as fh:
            fh.write("provider = real\n")  # and no endpoint_url
        assert cli.main(["preextract", "--config", str(config)]) == 1
        assert "GatewayError: HTTP provider requires an endpoint URL" in capsys.readouterr().err

    def test_empty_path_is_exit_code_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("budget = 4\npool_path =\n", encoding="utf-8")
        assert cli.main(["preextract", "--config", str(config)]) == 2
        assert "run.cfg:2: bad value for 'pool_path'" in capsys.readouterr().err

    def test_bad_config_is_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert cli.main(["preextract", "--config", str(bad)]) == 2
