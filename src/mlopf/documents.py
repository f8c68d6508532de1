"""JSON documents read into columns, and the checks that name a first offender.

Every document the package reads is a JSON object whose arrays hold
entries. document_columns reads such an array one column per key,
converting a column whole when its values are plain JSON values and
value by value otherwise, so that the first offending entry is named
with the message its scalar reader gives. The rules for ids, numbers and
phases are written here once; the network, device and partition readers
name their fields and column readers. first_offender finds the first
entry that fails any of a list of array checks, for documents and for
the checks Network and Problem run on their arrays.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path

import numpy as np

# Phases as documents and records name them, and their codes.
PHASE_CODE = {"a": 0, "b": 1, "c": 2}
PHASE_NAME = {0: "a", 1: "b", 2: "c"}


class NetworkError(ValueError):
    """Malformed document or violated radial-network invariant."""


def first_offender(checks) -> tuple[int, str | Exception] | None:
    """The first entry that fails a check, and the message of its first failed check.

    checks are (failed, message) pairs in the order one entry's checks run:
    failed is a bool array over the entries, or one bool for a single
    entry, and message a string or a function of the entry's index. None
    when every entry passes.
    """
    hit = checks[0][0]
    for failed, _ in checks[1:]:
        hit = hit | failed
    if not np.any(hit):
        return None
    i = int(np.argmax(hit))
    message = next(message for failed, message in checks if np.atleast_1d(failed)[i])
    return i, message(i) if callable(message) else message


def raise_first(checks, error=NetworkError) -> None:
    """Raise for first_offender's entry: its message if an exception, else error(message)."""
    found = first_offender(checks)
    if found is not None:
        raise found[1] if isinstance(found[1], Exception) else error(found[1])


def read_document(document: dict | str | Path, what: str) -> dict:
    """The JSON object at a path, or a parsed document; anything else raises NetworkError."""
    if isinstance(document, (str, Path)):
        try:
            document = json.loads(Path(document).read_text())
        except json.JSONDecodeError as exc:
            raise NetworkError(f"{what} document is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise NetworkError(f"{what} document must be a JSON object")
    return document


def document_keys(value, keys: tuple[str, ...], what: str) -> dict:
    """value, a JSON object holding no key outside keys; else NetworkError naming what."""
    if not isinstance(value, dict):
        raise NetworkError(f"{what} must be a JSON object")
    for key in value:
        if key not in keys:
            raise NetworkError(f"{what} has unknown key {key!r}")
    return value


def json_number(value) -> float:
    """A JSON number as a float; a string, a bool or anything else raises TypeError.

    An integer beyond the float range raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} is beyond the float range") from None


def document_number(document: dict, key: str, default: float | None, what: str) -> float:
    """The number under key, or default when absent; anything else raises NetworkError."""
    try:
        return json_number(document.get(key, default))
    except (TypeError, ValueError):
        raise NetworkError(f"{what} document field {key!r} must be a number") from None


def document_id(value) -> int:
    """A bus id as written in a document: an integer, or an integral float such as 3.0.

    Ids lie in [0, 2**63 - 1], the range of the int64 arrays that hold
    them. A string or a bool raises TypeError; a fraction or an id out of
    range ValueError.
    """
    if not json_number(value).is_integer():
        raise ValueError(f"bus id {value!r} is not an integer")
    if not 0 <= value < 2**63:
        raise ValueError(f"bus id {value!r} is outside [0, 2**63 - 1]")
    return int(value)


def document_phase(value) -> str:
    """A phase as written in a document: the string "a", "b" or "c"; else ValueError."""
    if not isinstance(value, str) or value not in PHASE_CODE:
        raise ValueError(f"unknown phase {value!r}")
    return value


# -- document columns -----------------------------------------------------
#
# A column reader takes the values of one key, entry by entry, and the
# columns read before it. It returns (array, fault): fault is None, or
# (index, exception) for the first value it rejects, the array then
# covering the values before it. Each reader first tries the whole column
# at once and takes it only when every value is of the plain JSON type its
# fast path converts; otherwise it reads value by value, so a rejected
# value gets the message its scalar reader gives.

def scan_column(values: list, read) -> tuple[list, tuple | None]:
    """A column read value by value, up to the first value that read rejects."""
    out = []
    for value in values:
        try:
            out.append(read(value))
        except (KeyError, TypeError, ValueError) as exc:
            return out, (len(out), exc)
    return out, None


def id_column(values: list, columns=None):
    """Ids as int64, read by document_id."""
    if set(map(type, values)) <= {int}:
        try:
            ids = np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass
        else:
            if not (ids < 0).any():
                return ids, None
    ids, fault = scan_column(values, document_id)
    return np.array(ids, dtype=np.int64), fault


def number_column(values: list, columns=None):
    """Numbers as float64, read by json_number."""
    if set(map(type, values)) <= {float, int}:
        try:
            return np.fromiter(values, np.float64, len(values)), None
        except OverflowError:
            pass
    numbers, fault = scan_column(values, json_number)
    return np.array(numbers, dtype=np.float64), fault


def phase_column(values: list, columns=None):
    """Phase codes as int64, read by document_phase."""
    try:
        plain = set(values) <= set(PHASE_CODE)
    except TypeError:  # an unhashable value
        plain = False
    if plain:
        return np.frombuffer("".join(values).encode(), np.uint8).astype(np.int64) - ord("a"), None
    codes, fault = scan_column(values, lambda value: PHASE_CODE[document_phase(value)])
    return np.array(codes, dtype=np.int64), fault


def document_columns(
    document: dict, key: str, what: str, entry: str, fields: dict, error=NetworkError, checks=None
) -> dict:
    """The entries of the JSON array under key, read into one column per field.

    fields maps each key an entry may hold to its column reader, or to
    (reader, default) for a key an entry may leave out, in the order one
    entry's checks run; an absent array reads as no entries. checks, given
    the columns, returns first_offender's checks that follow an entry's
    fields. The first entry that fails any check raises error naming the
    entry and its first failed check, as document_keys or the reader words
    it; a field that is not an array raises NetworkError.
    """
    values = document.get(key, [])
    if not isinstance(values, list):
        raise NetworkError(f"{what} document field {key!r} must be a JSON array")
    names = tuple(fields)
    limit, fault = len(values), None

    def reject(i: int, exc: Exception) -> None:
        nonlocal limit, fault
        if i < limit:
            limit, fault = i, exc

    def key_fault(i: int) -> None:
        try:
            document_keys(values[i], names, "entry")
        except NetworkError as exc:
            reject(i, exc)

    rows = values
    if not set(map(type, values)) <= {dict}:
        stray = next((i for i, row in enumerate(values) if not isinstance(row, dict)), None)
        if stray is not None:
            key_fault(stray)
            rows = values[:stray]
    missing = object()
    columns, gaps = {}, {}
    for name in names:
        try:
            columns[name] = list(map(itemgetter(name), rows))
        except KeyError:
            columns[name] = [row.get(name, missing) for row in rows]
            gaps[name] = [i for i, value in enumerate(columns[name]) if value is missing]
    if sum(map(len, rows)) != len(rows) * len(names) - sum(map(len, gaps.values())):
        key_fault(next(i for i, row in enumerate(rows) if not row.keys() <= set(names)))

    read = {}
    for name, reader in fields.items():
        reader, default = reader if isinstance(reader, tuple) else (reader, missing)
        values_in = columns[name][:limit]
        for i in gaps.get(name, ()):
            if default is missing:
                reject(i, KeyError(name))
                values_in = values_in[:i]
                break
            if i < len(values_in):
                values_in[i] = default
        read[name], bad = reader(values_in, read)
        if bad is not None:
            reject(*bad)
    if checks is not None:
        found = first_offender(checks({name: column[:limit] for name, column in read.items()}))
        if found is not None:
            reject(found[0], error(found[1]))
    if fault is not None:
        raise error(f"malformed {entry} entry {values[limit]!r}: {fault}") from fault
    return read
