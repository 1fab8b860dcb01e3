"""The text of an input file, and the one CSV reader of the package.

Every CSV and JSON reader in the package decodes its file as UTF-8, so a file
that is not UTF-8 is an ``IngestionError`` naming the file and the row of the
first bad byte; ``read_json`` also names the file of JSON it cannot parse.
``read_csv`` reads the dataset, design, point, curve and histories formats.
It opens its file once and reads a well-formed file with no quoting in blocks
of ``BLOCK_BYTES``: each block is decoded, split into lines and its number
columns parsed by one ``np.loadtxt`` call (``split_plain``), so the reader
holds one block's text and lines at a time besides what it returns.  Any
other file is read again from its start on the same handle, decoded whole
and read by one ``csv`` row loop (``split_rows``), which reads quoted fields
and bare CRs and is the one that says what is wrong with a malformed file;
the blocks read before the one that sent it there are decoded twice.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np

from .errors import IngestionError

__all__ = [
    "BLOCK_BYTES", "ROW_READER_CHARS", "exact_header", "read_text", "read_json", "read_csv", "require_finite",
    "split_plain", "split_rows",
]

#: Characters that send a file to the row reader: a quote (CSV quoting), a
#: bare CR (a line break ``str.split("\n")`` does not see), NUL (which
#: ``csv`` rejects on some Python versions) and \x1c-\x1f (whitespace to
#: numpy's float parser, but not to ``float``).
ROW_READER_CHARS = '"\r\0\x1c\x1d\x1e\x1f'

#: Bytes ``split_plain`` reads at a time, before the rest of their last line.
BLOCK_BYTES = 256 * 1024


def read_text(path) -> str:
    """The file's text, decoded as UTF-8; an undecodable byte raises
    ``_decode``'s ``IngestionError``."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _decode(path, data: bytes) -> str:
    """``data`` decoded as UTF-8.  Undecodable bytes raise ``IngestionError``
    naming ``path`` and the row of the first one, counting LF, CRLF and bare
    CR as line ends as the ``csv`` reader does."""
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
    """``(header, texts, values, lines)`` of a CSV file, opened once: read
    in blocks by ``split_plain``, or, when it declines the file, read whole
    from the start on the same handle and split by ``split_rows``.

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
    with open(path, "rb") as fh:
        plain = split_plain(fh, header_rule)
        if plain is not None:
            return plain
        fh.seek(0)
        text = _decode(path, fh.read())
    try:
        return split_rows(text, header_rule)
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


def split_plain(fh, header_rule):
    """``read_csv`` of a binary file from where ``fh`` stands, block by
    block, or None when the file needs the row reader (or its header is
    rejected: that error is the row reader's, once the whole file decodes).

    A block is ``BLOCK_BYTES`` bytes plus the rest of the line they end in,
    so it ends after an LF or at the end of the file and never splits a
    UTF-8 character or a CRLF pair.  Each block must decode as UTF-8 and
    hold none of ``ROW_READER_CHARS`` once CRLF is read as LF; its non-blank
    lines (data lines; the first line of the file is the header) must have
    as many fields as the header in total, none be longer than
    ``csv.field_size_limit()``, and their number columns parse in one
    ``np.loadtxt`` call.  The header must be non-empty and the file hold at
    least one number column and one data line.  A file that passes reads as
    the row reader reads it, whatever the block size, since every check
    holds for the whole file exactly when it holds for each block.
    """
    limit = csv.field_size_limit()
    header = None
    texts, values, starts = [], [], range(2, 2)
    line = 1  # the file line of the block's first line
    while data := fh.read(BLOCK_BYTES):
        if not data.endswith(b"\n"):
            data += fh.readline()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        if any(c in text for c in ROW_READER_CHARS):
            return None
        parts = text.split("\n")
        first, skip = line, 0
        line += len(parts) - 1
        if header is None:
            if not parts[0] or len(parts[0]) > limit:
                return None
            header = [h.strip() for h in parts[0].split(",")]
            try:
                text_column = header_rule(header)
            except IngestionError:
                return None
            columns = _number_columns(header, text_column)
            commas = len(header) - 1
            if not columns:
                return None
            skip = 1
        rows = [part for part in itertools.islice(parts, skip, None) if part.strip()]
        if text.count(",") != commas * (len(rows) + skip):
            return None
        if not rows:
            continue
        if max(map(len, rows)) > limit:
            return None
        # ``np.loadtxt`` ignores fields after the last column it reads and fails
        # on a line short of it, so with the right comma total only a text
        # column at the end needs the lines counted one by one.
        if columns[-1] != commas and any(row.count(",") != commas for row in rows):
            return None
        try:
            values.append(np.loadtxt(rows, delimiter=",", usecols=columns, comments=None, ndmin=2))
        except ValueError:
            return None
        if text_column == 0:
            texts.extend(row.partition(",")[0] for row in rows)
        elif text_column is not None:
            texts.extend(row.rpartition(",")[2] for row in rows)
        first += skip
        # ``starts`` stays a range until a blank line comes before a data line.
        if isinstance(starts, range) and starts.stop == first and parts[skip : skip + len(rows)] == rows:
            starts = range(starts.start, first + len(rows))
        else:
            starts = list(starts) if isinstance(starts, range) else starts
            starts += [n for n, part in enumerate(itertools.islice(parts, skip, None), first) if part.strip()]
    if not values:
        return None
    values = values[0] if len(values) == 1 else np.concatenate(values)
    return header, (None if text_column is None else texts), values, starts


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
