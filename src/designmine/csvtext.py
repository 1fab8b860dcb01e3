"""The text of an input file, decoded once, and the one CSV reader of the package.

Every CSV and JSON reader in the package decodes its file with ``read_text``,
so a file that is not UTF-8 is an ``IngestionError`` naming the file and the
row of the first bad byte; ``read_json`` also names the file of JSON it cannot
parse.  ``read_csv`` reads the dataset, design, point, curve and histories
formats: a well-formed file with no quoting is split into lines and its number
columns parsed by one ``np.loadtxt`` call (``split_plain``); any other file
goes through one ``csv`` row loop (``split_rows``), which reads quoted fields
and bare CRs and is the one that says what is wrong with a malformed file.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np

from .errors import IngestionError

__all__ = [
    "ROW_READER_CHARS", "exact_header", "read_text", "read_json", "read_csv", "require_finite", "split_plain",
    "split_rows",
]

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


def exact_header(*names, text_column=None):
    """The header rule of a format whose header is exactly ``names``."""

    def rule(fields):
        if fields != list(names):
            raise IngestionError(f"expected header {','.join(names)}, got {','.join(fields)}")
        return text_column

    return rule


def read_csv(path, header_rule):
    """``(header, texts, values, lines)`` of a CSV file, decoded once.

    ``header_rule(fields)`` is called with the header's stripped fields; it
    returns the text column (0, -1 or None) or raises ``IngestionError`` for
    a header its format rejects.  ``texts`` are the text column's cells,
    verbatim (None without a text column), ``values`` the other columns
    parsed as float into a (rows, columns) array, and ``lines`` the file line
    each data row starts on, the header being line 1.  Blank rows (no field
    but whitespace) are skipped.  Every error is an ``IngestionError`` that
    names the file, and the line for a fault in a row: ``row N: expected K
    fields, got M``, ``row N, column 'c': could not parse 'x' as a number``,
    or the ``csv`` module's own complaint.
    """
    text = read_text(path)
    try:
        return split_plain(text, header_rule) or split_rows(text, header_rule)
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def require_finite(path, values, lines, what):
    """Raise ``IngestionError`` naming the file and the line of the first row
    of ``values`` (as ``read_csv`` returns them) that holds a NaN or an
    infinity: ``<path>: row N: non-finite <what>``."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise IngestionError(f"{path}: row {lines[int(finite.argmin())]}: non-finite {what}")


def _number_columns(header, text_column):
    columns = list(range(len(header)))
    if text_column is not None:
        del columns[text_column]
    return columns


def split_plain(text, header_rule):
    """``read_csv`` of a file's text in one pass, its errors not yet naming
    the file, or None when the file needs the row reader.

    Data lines are the non-blank lines after the header, CRLF read as LF, and
    the number columns are parsed by one ``np.loadtxt`` call.  The file must
    hold none of ``ROW_READER_CHARS``, have a non-empty header, at least one
    number column and one data line, every line as many fields as the header
    and none longer than ``csv.field_size_limit()``.  Such a file's header
    reads as the row reader reads it, so ``header_rule``'s error is the same.
    """
    text = text.replace("\r\n", "\n")
    if any(c in text for c in ROW_READER_CHARS):
        return None
    raw = text.split("\n")
    limit = csv.field_size_limit()
    if not raw[0] or len(raw[0]) > limit:
        return None
    header = [h.strip() for h in raw[0].split(",")]
    text_column = header_rule(header)
    columns = _number_columns(header, text_column)
    lines = [line for line in itertools.islice(raw, 1, None) if line.strip()]
    commas = len(header) - 1
    if (
        not columns
        or not lines
        or text.count(",") != commas * (len(lines) + 1)
        or max(map(len, lines)) > limit
    ):
        return None
    # ``np.loadtxt`` ignores fields after the last column it reads and fails on
    # a line short of it, so with the right comma total only a text column at
    # the end needs the lines counted one by one.
    if columns[-1] != commas and any(line.count(",") != commas for line in lines):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=columns, comments=None, ndmin=2)
    except ValueError:
        return None
    if text_column is None:
        texts = None
    elif text_column == 0:
        texts = [line.partition(",")[0] for line in lines]
    else:
        texts = [line.rpartition(",")[2] for line in lines]
    if raw[1 : len(lines) + 1] == lines:  # no blank line before the last data line
        starts = range(2, len(lines) + 2)
    else:
        starts = [n for n, line in enumerate(raw, start=1) if n > 1 and line.strip()]
    return header, texts, values, starts


def split_rows(text, header_rule):
    """``read_csv`` of a file's text, row by row with ``csv``, its errors not
    yet naming the file.  A row's line is the one after the last line of the
    record before it."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1
    try:
        header = next(reader, None)
        if header is None:
            raise IngestionError("empty file")
        header = [h.strip() for h in header]
        text_column = header_rule(header)
        columns = _number_columns(header, text_column)
        texts, rows, lines = [], [], []
        line = reader.line_num + 1
        for row in reader:
            if any(map(str.strip, row)):
                if len(row) != len(header):
                    raise IngestionError(f"row {line}: expected {len(header)} fields, got {len(row)}")
                values = []
                for j in columns:
                    try:
                        values.append(float(row[j]))
                    except ValueError:
                        raise IngestionError(
                            f"row {line}, column {header[j]!r}: "
                            f"could not parse {row[j].strip()!r} as a number"
                        ) from None
                rows.append(values)
                if text_column is not None:
                    texts.append(row[text_column])
                lines.append(line)
            line = reader.line_num + 1
    except csv.Error as exc:
        raise IngestionError(f"row {line}: {exc}") from None
    values = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return header, (None if text_column is None else texts), values, lines
