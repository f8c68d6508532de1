"""JSON documents read into columns, and the check that names a first offender.

Every document the package reads is a JSON object whose arrays hold
entries. document_columns reads such an array one column per key, each
column whole; only when the list fails does it read its entries again,
a block and then one entry at a time, so that the first offending entry
is named with the message of the first rule it breaks. The rules for
ids, numbers and phases are written here once; the network, device and
partition readers name their fields and column readers. raise_first
names the first entry that fails any of a list of array checks, for
documents and for the checks Network and Problem run on their arrays.
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


def raise_first(checks, error=NetworkError) -> None:
    """Raise for the first entry that fails a check, with its first failed check's message.

    checks are (failed, message) pairs in the order one entry's checks run:
    failed is a bool array over the entries, or one bool for a single
    entry, and message a string or a function of the entry's index. A
    message that is an exception is raised as it is, any other as
    error(message). Returns when every entry passes.
    """
    hit = checks[0][0]
    for failed, _ in checks[1:]:
        hit = hit | failed
    if np.any(hit):
        i = int(np.argmax(hit))
        message = next(message for failed, message in checks if np.atleast_1d(failed)[i])
        message = message(i) if callable(message) else message
        raise message if isinstance(message, Exception) else error(message)


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
    """A JSON number, or a numpy integer or float scalar, as a float; a string, a bool or
    anything else raises TypeError, and an integer beyond the float range ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
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
# columns read before it, and returns the column. It converts the whole
# column at once when every value is of the plain JSON type its fast path
# takes, and otherwise reads value by value through its scalar reader, so
# that a rejected value raises the message that reader gives.

def id_column(values: list, columns=None) -> np.ndarray:
    """Ids as int64, read by document_id."""
    if set(map(type, values)) <= {int}:
        try:
            ids = np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass
        else:
            if not (ids < 0).any():
                return ids
    return np.array([document_id(value) for value in values], dtype=np.int64)


def number_column(values: list, columns=None) -> np.ndarray:
    """Numbers as float64, read by json_number."""
    if set(map(type, values)) <= {float, int}:
        try:
            return np.fromiter(values, np.float64, len(values))
        except OverflowError:
            pass
    return np.array([json_number(value) for value in values], dtype=np.float64)


def phase_column(values: list, columns=None) -> np.ndarray:
    """Phase codes as int64, read by document_phase."""
    try:
        plain = set(values) <= set(PHASE_CODE)
    except TypeError:  # an unhashable value
        plain = False
    if plain:
        return np.frombuffer("".join(values).encode(), np.uint8).astype(np.int64) - ord("a")
    return np.array([PHASE_CODE[document_phase(value)] for value in values], dtype=np.int64)


# Entries read at once while a failed list is read again for its first offender.
_REREAD_BLOCK = 1024


def document_columns(
    document: dict, key: str, what: str, entry: str, fields: dict, error=NetworkError, checks=None
) -> dict:
    """The entries of the JSON array under key, read into one column per field.

    fields maps each key an entry may hold to its column reader, or to
    (reader, default) for a key an entry may leave out, in the order one
    entry's fields are read; an absent array reads as no entries. checks,
    given the columns, returns raise_first's checks that follow an entry's
    fields. The first entry that fails any rule raises error naming the
    entry and the first rule it fails, as document_keys, the reader or the
    check words it; a field that is not an array raises NetworkError.
    """
    values = document.get(key, [])
    if not isinstance(values, list):
        raise NetworkError(f"{what} document field {key!r} must be a JSON array")
    try:
        return _read_entries(values, fields, error, checks)
    except (KeyError, TypeError, ValueError) as exc:
        fault = exc
    # No rule looks across entries, so the first offender is the first entry
    # that fails on its own, and it lies in the first block that fails.
    for size in (_REREAD_BLOCK, 1):
        for lo in range(0, len(values), size):
            try:
                _read_entries(values[lo:lo + size], fields, error, checks)
            except (KeyError, TypeError, ValueError) as exc:
                values, fault = values[lo:lo + size], exc
                break
    raise error(f"malformed {entry} entry {values[0]!r}: {fault}") from fault


def _read_entries(entries: list, fields: dict, error, checks) -> dict:
    """document_columns' columns of entries; raises at the first rule an entry fails.

    Within one entry the rules run in order: its type and keys
    (document_keys), its fields in the order of fields, a missing key
    without a default raising KeyError at its own field, then checks.
    """
    names = tuple(fields)
    if not (set(map(type, entries)) <= {dict} and set().union(*entries) <= set(names)):
        for value in entries:
            document_keys(value, names, "entry")
    columns = {}
    for name, reader in fields.items():
        reader, *default = reader if isinstance(reader, tuple) else (reader,)
        try:
            column = list(map(itemgetter(name), entries))
        except KeyError:
            if not default:
                raise
            column = [value.get(name, *default) for value in entries]
        columns[name] = reader(column, columns)
    if checks is not None:
        raise_first(checks(columns), error)
    return columns
