"""Run the amr-logic-aug CLI with a span around every layer's public functions.

Usage::

    python3 perfbench/tracer.py SPANS_OUT -- CLI_ARGS...

The package is imported first, so import and interpreter start-up stay
untraced.  Then every function named in ``LAYERS`` is replaced by a
recording wrapper in each ``amr_logic_aug`` module namespace that binds it
(``build_graph`` is imported by name into ``laws`` and ``corpus``,
``apply_law`` into ``pairs`` and ``prompt``, and so on), so calls are caught
whichever name they go through.  No source file of the package changes.

Spans stay in memory while the CLI runs and are written to SPANS_OUT when
it returns: a first line with the list of span names, then one JSON array
per span, ``[name, start_ns, end_ns, parent, raised, note]``, where
``parent`` is the index of the enclosing span (-1 at top level).  ``note``
keeps the one argument or result a per-layer metric needs: the sentence
text of ``parse_sentence_struct`` (for ``repeat_share``; taken before the
call, so parses that raise ``GrammarError`` count too), whether
``rewrite_sentence`` skipped (for ``skip_share``) and the verdict of
``equivalent`` (for the sample arm's useful ratio).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS: dict[str, tuple[str, ...]] = {
    "grammar": ("parse_sentence_struct", "build_graph", "read_graph", "realize"),
    "graph": ("parse_penman", "serialize"),
    "logic": ("to_formula", "equivalent"),
    "laws": ("apply_law", "flip_polarity_negative"),
    "corpus": ("build_corpus", "corpus_to_jsonl"),
    "pairs": ("build_pairs", "emit_jsonl", "load_jsonl", "verify_records"),
    "prompt": ("augment_record", "rewrite_sentence", "split_sentences"),
    "lexicon": ("default_lexicon",),
    "cli": ("main",),
}

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{name}" for layer, names in LAYERS.items() for name in names
)

# Notes taken from a call's arguments, before it runs, and from its result.
_ARGUMENT_NOTES = {
    "grammar.parse_sentence_struct": lambda args, kwargs: args[0] if args else kwargs["text"],
}
_RESULT_NOTES = {
    "prompt.rewrite_sentence": lambda result: result.skipped_reason is not None,
    "logic.equivalent": lambda result: result,
}


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name_id: int, func):
        spans = self.spans
        stack = self._stack
        argument_note = _ARGUMENT_NOTES.get(SPAN_NAMES[name_id])
        result_note = _RESULT_NOTES.get(SPAN_NAMES[name_id])
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            note = argument_note(args, kwargs) if argument_note else None
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, True, note)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            if result_note:
                note = result_note(result)
            spans[index] = (name_id, start, end, parent, False, note)
            return result

        return traced

    def install(self) -> None:
        """Swap every binding of a traced function for its wrapper."""
        wrappers = {}
        for name_id, span_name in enumerate(SPAN_NAMES):
            layer, name = span_name.split(".")
            func = getattr(importlib.import_module(f"amr_logic_aug.{layer}"), name)
            wrappers[id(func)] = self.wrap(name_id, func)
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "amr_logic_aug" or key.startswith("amr_logic_aug.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(SPAN_NAMES) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, ensure_ascii=False) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- CLI_ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from amr_logic_aug import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
