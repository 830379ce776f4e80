"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speedometer  # noqa: E402
import workloads  # noqa: E402

SMALL = 200


class SmallBuild(workloads.Build):
    """The build workload on a small corpus, so a test runs it in seconds."""

    def __init__(self, seed: int, pinned: dict[str, str]) -> None:
        super().__init__(seed, Path("."))
        self.items = SMALL
        self.pinned = pinned

    def calls(self):
        return [
            workloads.Call(call.args + ("--count", str(SMALL)), call.expect_exit)
            for call in super().calls()
        ]


def test_same_seed_gives_identical_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CHECK_CORPUS_SIZE", 300)
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        directory = tmp_path / name
        inputs.make_reclor_file(seed, directory / "reclor.json")
        inputs.make_check_file(seed, directory / "check.jsonl")
        inputs.make_penman_files(seed, directory)
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name
        assert path.read_bytes() != (tmp_path / "c" / path.name).read_bytes(), path.name


def test_tracer_leaves_outputs_identical(tmp_path):
    workload = SmallBuild(3, {})
    untraced = run.Iteration(workload, tmp_path, 0, traced=False)
    traced = run.Iteration(workload, tmp_path, 1, traced=True)
    assert untraced.exit_ok and traced.exit_ok
    assert traced.digest == untraced.digest
    metrics = layers.layer_metrics(layers.load_spans(path) for path in traced.spans)
    assert metrics["laws.apply_law.calls"] == SMALL
    assert metrics["graph.serialize.calls"] == SMALL
    assert metrics["grammar.parse_sentence_struct.calls"] == 0
    assert metrics["pairs.sample_arm.oracle_calls"] > 0
    assert run.score(workload, [untraced, traced])[1] == 0


def test_wrong_pinned_digest_fails_every_item(tmp_path):
    workload = SmallBuild(0, {"corpus.jsonl": "0" * 64})
    attempted, failed, problems = run.score(workload, [run.Iteration(workload, tmp_path, 0, False)])
    assert attempted == failed == SMALL
    assert "pinned" in problems[0]


def test_unflagged_planted_record_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CHECK_CORPUS_SIZE", 300)
    workload = workloads.Check(1, tmp_path)
    iteration = run.Iteration(workload, tmp_path, 0, False)
    assert run.score(workload, [iteration])[1] == 0
    workload.planted.add(min(set(range(workload.items)) - workload.planted))
    attempted, failed, _ = run.score(workload, [iteration])
    assert (attempted, failed) == (workload.items, 1)


def test_nonzero_exit_fails_every_item(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "PROMPT_RECORDS", 20)
    workload = workloads.Prompt(1, tmp_path)
    workload.path.unlink()
    iteration = run.Iteration(workload, tmp_path, 0, False)
    assert iteration.exit_codes == [1]
    assert run.score(workload, [iteration])[:2] == (20, 20)


def test_abort_fails_every_item_and_still_prints_a_result(monkeypatch, capsys):
    monkeypatch.setattr(inputs, "PROMPT_RECORDS", 20)

    def broken_setup(workdir, probes):
        raise RuntimeError("the package failed to import")

    monkeypatch.setattr(run, "measure_setup", broken_setup)
    assert run.main(["--workload", "prompt", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 20, "failed": 20, "metrics": {}}


def test_prompt_invariants_catch_a_bad_rewrite():
    from amr_logic_aug.lexicon import default_lexicon

    lexicon = default_lexicon()
    source = {
        "context": "If Alice is punctual, then Brian is honest.",
        "question": "q",
        "answers": ["Carla is modest.", "b", "c", "d"],
        "label": 0,
        "id_string": "x",
    }
    good = dict(source, answers=[
        answer + " Alice is not punctual if Brian is not honest." for answer in source["answers"]
    ])
    assert workloads.prompt_record_problem(source, good, lexicon) == ""
    wrong = dict(source, answers=[
        "Carla is modest. Brian is not honest if Alice is not punctual.", "b", "c", "d",
    ])
    assert "equivalent to no source" in workloads.prompt_record_problem(source, wrong, lexicon)
    assert "no rewrite" in workloads.prompt_record_problem(source, source, lexicon)
    relabeled = dict(good, label=1)
    assert workloads.prompt_record_problem(source, relabeled, lexicon) == "label changed"


def test_speedometer_scales_wall_time_to_the_reference_speed():
    reference = speedometer.REFERENCE_LOOP_S
    with speedometer.Speedometer() as speed:
        time.sleep(10 * speedometer.INTERVAL_S)
    assert len(speed.samples) >= 3
    speed.samples = [(1.0, reference), (2.0, 2 * reference), (3.0, 2 * reference), (4.0, 2 * reference)]
    # A CPU at half the reference speed: its wall seconds count half.
    assert speed.scale(1.5, 4.5) == 0.5
    # Too short an interval for its own samples takes the nearest three.
    assert math.isclose(speed.scale(0.9, 1.1), 3 / 5)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(spec["paths"]) == ["perfbench"]
    assert {workload["name"] for workload in spec["workloads"]} == set(workloads.WORKLOADS)
    reported = list(layers.layer_metrics([])) + ["trace.overhead_s"]
    assert [metric["name"] for metric in spec["per_layer"]] == reported
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert {metric["name"] for metric in spec["end_to_end"]} == {
        "items_per_s", "setup_s", "peak_rss_mb",
    }


def test_exits_nonzero_without_package_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "build", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
