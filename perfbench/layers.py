"""Per-layer metrics from the span files that ``tracer.py`` writes.

A span's self time is its duration minus the durations of its direct child
spans.  The CLI is single-threaded and has no queues, so child spans never
overlap and no waiting time exists to record.  Latency percentiles are
taken over whole span durations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

NS = 1e-9


def load_spans(path: str | Path) -> list[tuple]:
    """Spans of one traced process, with names resolved."""
    with Path(path).open(encoding="utf-8") as handle:
        names = json.loads(handle.readline())
        return [
            (names[row[0]], row[1], row[2], row[3], row[4], row[5])
            for row in map(json.loads, handle)
        ]


def _percentile(sorted_values: list[int], share: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))])


_FIELDS = {
    "calls": lambda layer, durations: layer.calls,
    "errors": lambda layer, durations: layer.errors,
    "self_s": lambda layer, durations: layer.self_ns * NS,
    "p50_us": lambda layer, durations: _percentile(durations, 0.50) / 1e3,
    "p99_us": lambda layer, durations: _percentile(durations, 0.99) / 1e3,
    "p50_ms": lambda layer, durations: _percentile(durations, 0.50) / 1e6,
    "p99_ms": lambda layer, durations: _percentile(durations, 0.99) / 1e6,
}


class _Layer:
    __slots__ = ("calls", "self_ns", "errors", "durations", "notes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.errors = 0
        self.durations: list[int] = []
        self.notes: list = []


def layer_metrics(processes: Iterable[list[tuple]]) -> dict[str, float]:
    """Aggregate the spans of every CLI process of one workload iteration."""
    layers: dict[str, _Layer] = {}
    sample_arm_calls = sample_arm_useful = 0
    for spans in processes:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _raised, _note in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent, raised, note) in enumerate(spans):
            layer = layers.get(name)
            if layer is None:
                layer = layers[name] = _Layer()
            duration = end - start
            layer.calls += 1
            layer.self_ns += duration - child_ns[index]
            layer.errors += raised
            layer.durations.append(duration)
            if note is not None:
                layer.notes.append(note)
            if name == "logic.equivalent" and parent >= 0 and spans[parent][0] == "pairs.build_pairs":
                # The sample arm is the only place build_pairs calls the
                # oracle itself; a non-equivalent draw is always emitted.
                sample_arm_calls += 1
                sample_arm_useful += note is False

    def get(name: str) -> _Layer:
        return layers.get(name) or _Layer()

    metrics: dict[str, float] = {}

    def add(name: str, fields: Iterable[str]) -> None:
        layer = get(name)
        durations = sorted(layer.durations)
        for field in fields:
            metrics[f"{name}.{field}"] = _FIELDS[field](layer, durations)

    add("grammar.parse_sentence_struct", ("calls", "self_s", "p50_us", "p99_us", "errors"))
    texts = get("grammar.parse_sentence_struct").notes
    metrics["grammar.parse_sentence_struct.repeat_share"] = (
        1 - len(set(texts)) / len(texts) if texts else 0.0
    )
    add("grammar.build_graph", ("calls", "self_s"))
    add("grammar.read_graph", ("calls", "self_s"))
    add("grammar.realize", ("calls", "self_s"))
    add("graph.parse_penman", ("calls", "self_s", "errors"))
    add("graph.serialize", ("calls", "self_s"))
    add("logic.to_formula", ("calls", "self_s"))
    add("logic.equivalent", ("calls", "self_s", "p50_us", "p99_us"))
    add("laws.apply_law", ("calls", "self_s", "errors"))
    add("laws.flip_polarity_negative", ("calls", "errors"))
    add("corpus.build_corpus", ("self_s",))
    add("corpus.corpus_to_jsonl", ("self_s",))
    add("pairs.build_pairs", ("self_s",))
    metrics["pairs.sample_arm.oracle_calls"] = sample_arm_calls
    metrics["pairs.sample_arm.useful_ratio"] = (
        sample_arm_useful / sample_arm_calls if sample_arm_calls else 0.0
    )
    add("pairs.emit_jsonl", ("self_s",))
    add("pairs.load_jsonl", ("self_s",))
    add("pairs.verify_records", ("self_s",))
    add("prompt.augment_record", ("calls", "self_s", "p50_ms", "p99_ms"))
    add("prompt.rewrite_sentence", ("calls",))
    skips = get("prompt.rewrite_sentence").notes
    metrics["prompt.rewrite_sentence.skip_share"] = sum(skips) / len(skips) if skips else 0.0
    add("prompt.split_sentences", ("self_s",))
    add("lexicon.default_lexicon", ("calls", "self_s"))
    add("cli.main", ("self_s",))
    return metrics
