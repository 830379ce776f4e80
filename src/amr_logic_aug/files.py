"""Data-file I/O: every reader and writer of the package's UTF-8 files,
the lexicon among them, and the digest of a data file (:func:`sha256_of`).

Every reader breaks lines at ``\n``, ``\r\n`` and ``\r`` only, never at
U+2028, U+0085, a form feed or a vertical tab.  :func:`read_file` returns a
whole file's bytes with its text, for a reader that also hashes the bytes.

Readers raise :class:`InputError`, naming the file and line, for a byte
that is not UTF-8, for malformed JSON (an integer past Python's digit
limit and nesting past the recursion limit among it) and for a JSON escape
of a lone surrogate (which decodes, but could never be written back as
UTF-8).
:func:`read_objects` is the one reader of row files: it also names the file
and line of a row that is not an object or that its builder refuses.
Writers stream into a temporary file beside the target and ``os.replace``
it into place, so a run that fails or is killed leaves the old file (or
none), never a truncated one, and an output may name its own input.
A fixed-key row can be formatted directly, each string through
:func:`json_string`, and written with :func:`write_text`; its bytes are
those :func:`write_jsonl` writes for the same row.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

# A JSON escape of a code point in U+D800..U+DFFF.  ``json.loads`` joins a
# high and a low escape side by side into one character and decodes any
# other such escape to a lone surrogate, which no UTF-8 writer can encode.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}")
# A string literal; in valid JSON none spans a line, since strings hold no
# raw line break.
_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')
_encode_json = json.JSONEncoder(ensure_ascii=False).encode
# The scan ``json.loads`` ends in.  On a stripped line that no BOM starts,
# consuming the whole line is exactly what ``json.loads`` accepts.
_raw_decode = json.JSONDecoder().raw_decode
# The string quoter that encoder uses: ``json_string(s)`` is
# ``json.dumps(s, ensure_ascii=False)`` without the per-call encoder.
json_string = json.encoder.encode_basestring
# What decoding malformed JSON raises: ``json.JSONDecodeError``, or the
# ``ValueError`` of an integer past the digit limit, or the ``RecursionError``
# of nesting past the recursion limit.
_UNDECODABLE = (ValueError, RecursionError)


class InputError(ValueError):
    """Input the package refuses: a file, a row or a request it cannot read
    or honour.  The CLI ends the run with exit 1 and the message."""


def _no_lone_surrogate(line: str, path, lineno: int) -> None:
    """Raise :class:`InputError` if a string on ``line``, a line of valid
    JSON, escapes a lone surrogate.  Only the strings of a line holding a
    surrogate escape are decoded again."""
    if _SURROGATE_ESCAPE_RE.search(line):
        for literal in _STRING_RE.findall(line):
            try:
                json.loads(literal).encode("utf-8")
            except UnicodeEncodeError:
                raise InputError(
                    f"{path}: line {lineno} escapes a lone surrogate, which is not UTF-8 text"
                ) from None


def _utf8(text: str, path, lineno: int) -> None:
    """Raise :class:`InputError` naming the line of an undecodable byte,
    which the reader read as a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:
        lineno += text.count("\n", 0, err.start)
        raise InputError(f"{path}: line {lineno} is not UTF-8 text") from None


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for each non-blank line.  Lines
    break at ``\\n``, ``\\r\\n`` and ``\\r`` only, never at U+2028 or U+0085."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():  # an ASCII line holds no undecodable byte
                _utf8(line, path, lineno)
            line = line.strip()
            if line:
                yield lineno, line


def read_jsonl(path) -> Iterator[tuple[int, Any]]:
    """Yield ``(line number, value)`` for each non-blank line.  A line's value
    is the scanner's when it consumed the whole line; any other line goes
    through ``json.loads``, whose message a malformed line reports."""
    for lineno, line in read_lines(path):
        try:
            value, end = _raw_decode(line)
        except _UNDECODABLE:
            end = -1
        if end != len(line):
            try:
                value = json.loads(line)
            except _UNDECODABLE as err:
                raise InputError(f"{path}: malformed JSON on line {lineno}: {err}") from err
        if "\\" in line:  # only an escape makes one; far cheaper than the regex
            _no_lone_surrogate(line, path, lineno)
        yield lineno, value


def read_objects(path, build: Callable[[dict], Any]) -> Iterator[Any]:
    """Yield ``build(row)`` for each JSON object line.  A line that is not an
    object, and a ``KeyError`` or ``ValueError`` from ``build``, raise
    :class:`InputError` prefixed ``<path>: line N:``; any other exception is
    a bug and propagates as it is."""
    for lineno, row in read_jsonl(path):
        if not isinstance(row, dict):
            raise InputError(f"{path}: line {lineno}: not a JSON object, got {type(row).__name__}")
        try:
            value = build(row)
        except KeyError as err:
            raise InputError(f"{path}: line {lineno}: missing key {err}") from err
        except ValueError as err:
            raise InputError(f"{path}: line {lineno}: {err}") from err
        yield value


def read_file(path) -> tuple[bytes, str]:
    """The file's bytes and its text, whose lines break as :func:`read_lines`'
    do: ``\r\n`` and ``\r`` read as ``\n``, and nothing else breaks one."""
    with open(path, "rb") as handle:
        data = handle.read()
    text = data.decode("utf-8", "surrogateescape")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    _utf8(text, path, 1)
    return data, text


def read_json(path) -> Any:
    text = read_file(path)[1]
    try:
        value = json.loads(text)
    except _UNDECODABLE as err:
        raise InputError(f"malformed JSON in {path}: {err}") from err
    if _SURROGATE_ESCAPE_RE.search(text):
        for lineno, line in enumerate(text.split("\n"), start=1):
            _no_lone_surrogate(line, path, lineno)
    return value


def sha256_of(path) -> str:
    """The sha256 hex digest of the file's bytes, read a block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


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
    return write_text(path, (_encode_json(row) + "\n" for row in rows))
