import hashlib
import json
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tripleforge import cli
from tripleforge.config import (
    CHOICES,
    ConfigError,
    PipelineConfig,
    apply_overrides,
    load_config,
)
from tripleforge.core import TripleSet
from tripleforge.gateway import CACHE_LOG, MockEchoGoldProvider, TransientProviderError
from tripleforge.pipeline import (
    EVAL_JSON,
    MANIFEST,
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
                 "6b1e3f33b16cd95c0b8acf0ef362109f2e4c8e1de60934df5953bd2d191be5c2"),
    "Haswell": ("b94ae0b211103eb821590dab3ca470db13906194d2d6b80d8c00424c1a41a923",
                "6ce5ab81bb16e79aef8613c34e832eb22cc4806b1ea5aa7257172b113dc5c999"),
    "Sandybridge": ("b24e1a3ab6e94745c9ba9f8ef9638eb0a2e8669a0f066e36801e76690ebad12f",
                    "00ecc2c6aae2045b8252cf6caa2aeed38e4e3aaac057bc12ebe3938a83f9c94f"),
    "Nehalem": ("2928a34ff2c2440f9e9412e2e36de46e4379b13bee06da7322921204edae7a4b",
                "00ecc2c6aae2045b8252cf6caa2aeed38e4e3aaac057bc12ebe3938a83f9c94f"),
    "Katmai": ("b5a40ed675b30add2ea597e10960677ea898ccf97249bf40de70886df792239a",
               "00ecc2c6aae2045b8252cf6caa2aeed38e4e3aaac057bc12ebe3938a83f9c94f"),
}
OPENBLAS_X86_64 = (
    platform.machine().lower() in ("x86_64", "amd64")
    and "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
)


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

    def test_missing_upstream_artifacts_name_the_producer(self, run_config):
        cfg = run_config()
        with pytest.raises(UpstreamMissingError, match="tripleforge preextract"):
            stage_distances(cfg)
        with pytest.raises(UpstreamMissingError, match="tripleforge train"):
            stage_select(cfg)
        with pytest.raises(UpstreamMissingError, match="tripleforge select"):
            stage_run(cfg)
        with pytest.raises(UpstreamMissingError, match="tripleforge run"):
            stage_eval(cfg)

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

    def test_textie_and_codeie_run_end_to_end(self, run_config, tmp_path):
        for i, fmt in enumerate(("textie", "codeie")):
            cfg = run_config(format=fmt, run_dir=tmp_path / f"run-{fmt}")
            run_all(cfg)
            report = json.loads((cfg.run_dir / EVAL_JSON).read_text())
            assert report["f1"] == 1.0, fmt

    def test_random_strategy(self, run_config):
        cfg = run_config(strategy="random", budget=3, seed=11)
        run_all(cfg)
        selection = json.loads((cfg.run_dir / SELECTION).read_text())
        assert len(selection["chosen"]) == 3 and selection["seed"] == 11

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

    def test_overrides(self):
        cfg = PipelineConfig(budget=5, strategy="topk")
        out = apply_overrides(cfg, budget=9, strategy=None)
        assert out.budget == 9 and out.strategy == "topk"

    def test_validation(self):
        with pytest.raises(ConfigError, match="strategy"):
            PipelineConfig(strategy="best-effort")
        with pytest.raises(ConfigError, match="provider"):
            PipelineConfig(provider="llm")

    @pytest.mark.parametrize("key", ["demo_order", "distance_source", "embedder", "provider",
                                     "strategy"])
    def test_choice_settings_checked_against_one_table(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be one of .*, got 'bogus'"):
            PipelineConfig(**{key: "bogus"})
        for value in CHOICES[key]:
            assert getattr(PipelineConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("key", ["strategy", "distance_source", "provider"])
    def test_cli_flags_offer_the_table_choices(self, key, capsys):
        flag = "--" + key.replace("_", "-")
        parser = cli._build_parser()
        for value in CHOICES[key]:
            assert getattr(parser.parse_args(["select", "--config", "c", flag, value]), key) == value
        with pytest.raises(SystemExit):
            parser.parse_args(["select", "--config", "c", flag, "bogus"])

    def test_format_and_embedder_validated_before_any_stage(self, tmp_path):
        # both are read only by later stages, after preextract's provider calls
        with pytest.raises(ConfigError, match="format 'bogus'"):
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
        # calls; a zero concurrency would block the first call, so none is
        # made, and a negative or NaN backoff would reach time.sleep on the
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

    def test_missing_upstream_is_exit_code_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli.main(["eval", "--config", str(config)]) == 2
        assert "tripleforge run" in capsys.readouterr().err

    def test_bad_config_is_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert cli.main(["preextract", "--config", str(bad)]) == 2
