"""The text of an input file: decoded once, and a CSV parsed in one pass when it is plain.

Every CSV and JSON reader in the package decodes its file with ``read_text``,
so a file that is not UTF-8 is an ``IngestionError`` naming the file and the
row of the first bad byte; ``read_json`` also names the file of JSON it cannot
parse.  ``split_plain`` is the fast path of the dataset and point readers: a
well-formed file with no quoting is split into lines and its number columns
parsed by one ``np.loadtxt`` call.  Any other file is left to the reader's
``csv`` row loop, which reads quoted fields and bare CRs and is the one that
says what is wrong with a malformed file.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import IngestionError

__all__ = ["ROW_READER_CHARS", "read_text", "read_json", "read_plain", "split_plain"]

#: Characters that send a file to the row reader: a quote (CSV quoting), a
#: bare CR (a line break ``str.split("\n")`` does not see), NUL (which
#: ``csv`` rejects on some Python versions) and \x1c-\x1f (whitespace to
#: numpy's float parser, but not to ``float``).
ROW_READER_CHARS = '"\r\0\x1c\x1d\x1e\x1f'


def read_text(path) -> str:
    """The file's text, decoded as UTF-8.  Undecodable bytes raise
    ``IngestionError`` with the row of the first one, counting LF, CRLF and
    bare CR as line ends as the ``csv`` reader does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        row = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise IngestionError(
            f"{path}: row {row}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from None


def read_json(path):
    """The JSON value of a file: text that ``read_text`` decodes, or JSON
    that ``json`` cannot parse, raises ``IngestionError`` naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise IngestionError(f"{path}: JSON nested too deeply to load") from None


def read_plain(path, text_column):
    """``split_plain`` of the file's text."""
    return split_plain(read_text(path), text_column)


def split_plain(text, text_column):
    """``(header fields, data lines, numbers)`` of a CSV file's text in one
    pass, or None when the file needs the row reader.

    Fields of the header are stripped; data lines are the non-blank lines
    after it, CRLF read as LF.  Every column but ``text_column`` (0, -1 or
    None) is parsed as float by one ``np.loadtxt`` call into an (rows,
    columns) array.  The file must hold none of ``ROW_READER_CHARS``, have a
    non-empty header and at least one data line, every line as many fields
    as the header and none longer than ``csv.field_size_limit()``.
    """
    text = text.replace("\r\n", "\n")
    if any(c in text for c in ROW_READER_CHARS):
        return None
    header, _, body = text.partition("\n")
    fields = [h.strip() for h in header.split(",")]
    usecols = list(range(len(fields)))
    if text_column is not None:
        del usecols[text_column]
    lines = [line for line in body.split("\n") if line.strip()]
    commas = len(fields) - 1
    if (
        not header
        or not usecols
        or not lines
        or body.count(",") != commas * len(lines)
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    # ``np.loadtxt`` ignores fields after the last column it reads and fails on
    # a line short of it, so with the right comma total only a text column at
    # the end needs the lines counted one by one.
    if usecols[-1] != commas and any(line.count(",") != commas for line in lines):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)
    except ValueError:
        return None
    return fields, lines, values
