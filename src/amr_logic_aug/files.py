"""Data-file I/O: every reader and writer of the package's UTF-8 files.

Readers raise the caller's error class, naming the file and line, for a
byte that is not UTF-8 or for malformed JSON.  Writers stream into a
temporary file beside the target and ``os.replace`` it into place, so a run
that fails or is killed leaves the old file (or none), never a truncated
one, and an output may name its own input.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator


def _utf8(text: str, path, lineno: int, error: type[Exception]) -> str:
    if not text.isascii():  # an undecodable byte was read as a lone surrogate
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as err:
            lineno += text.count("\n", 0, err.start)
            raise error(f"{path}: line {lineno} is not UTF-8 text") from None
    return text


def read_lines(path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for each non-blank line.  Lines
    break at ``\\n``, ``\\r\\n`` and ``\\r`` only, never at U+2028 or U+0085."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = _utf8(line, path, lineno, error).strip()
            if line:
                yield lineno, line


def read_jsonl(path, error: type[Exception]) -> Iterator[tuple[int, Any]]:
    for lineno, line in read_lines(path, error):
        try:
            yield lineno, json.loads(line)
        except json.JSONDecodeError as err:
            raise error(f"malformed JSON on line {lineno}: {err}") from err


def read_json(path, error: type[Exception]) -> Any:
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    try:
        return json.loads(_utf8(text, path, 1, error))
    except json.JSONDecodeError as err:
        raise error(f"malformed JSON in {path}: {err}") from err


def write_text(path, chunks: Iterable[str]) -> int:
    """Replace ``path`` with the chunks, in order; returns how many there were."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
                count += 1
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return count


def write_jsonl(path, rows: Iterable[Any]) -> int:
    return write_text(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


__all__ = ["read_lines", "read_jsonl", "read_json", "write_text", "write_jsonl"]
