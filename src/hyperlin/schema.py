"""Validating readers for JSON documents: job files and the documents of
`LinearSys.to_json` (a job without operations or output).

Each reader accepts only its own keys and reports any problem as a JobError
that names the path of the offending value, such as
`job.system.monomials[0]`.  The `from_json` readers of fields, ambients,
systems and blowup chains are built from these pieces.
"""

from __future__ import annotations

import contextlib


class JobError(ValueError):
    """Schema or content problem in a JSON document, with its location."""


def fail(path, message):
    raise JobError(f"{path}: {message}")


@contextlib.contextmanager
def located(path, errors=ValueError):
    """Re-raise `errors` from the block as a JobError at path; a JobError,
    already located, passes through."""
    try:
        yield
    except JobError:
        raise
    except errors as exc:
        fail(path, str(exc))


def check_keys(obj, path, required=(), optional=()):
    if not isinstance(obj, dict):
        fail(path, "expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        fail(path, f"unknown key(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        fail(path, f"missing key(s): {', '.join(missing)}")


def listed(value, path):
    """(path[i], entry) for each entry of a JSON list; a string or any other
    value is refused, not iterated."""
    if not isinstance(value, list):
        fail(path, f"expected a list, got {value!r}")
    return [(f"{path}[{i}]", v) for i, v in enumerate(value)]


def parse_poly(ring, text, path, parse=None):
    if not isinstance(text, str):
        fail(path, f"expected a polynomial string, got {text!r}")
    try:
        return (parse or ring.parse)(text)
    except (ValueError, TypeError) as exc:
        fail(path, f"cannot parse {text!r}: {exc}")


def parse_coord(field, value, path):
    if isinstance(value, bool) or isinstance(value, float):
        fail(path, f"coordinates must be integers or strings, got {value!r}")
    try:
        if isinstance(value, int):
            return field.from_int(value)
        if isinstance(value, str):
            return field.parse(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        fail(path, f"bad coordinate {value!r}: {exc}")
    fail(path, f"bad coordinate {value!r}")
