"""Canonical JSON serialization: sorted keys, no whitespace, no floats.

Every document the toolkit emits goes through :func:`canonical_dumps`, so a
given payload always serializes to identical bytes.  Content hashes are
SHA-256 over those bytes.  A document of exact dict (str keys), list, tuple,
str, int, bool and None nodes passes :func:`_plain`, one pass of ``type(x) is``
tests; any other is walked by :func:`_check_exact`, which names a refused path.
"""

from __future__ import annotations

import hashlib
import json

from .errors import BudgetExceeded, MalformedPayload

_ALLOWED_SCALARS = frozenset((str, int, bool, type(None)))


def _spelled(path) -> str:
    return "$" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


def _plain(obj) -> bool:
    kind = type(obj)
    if kind is dict and all(type(key) is str for key in obj):
        obj = obj.values()
    elif kind is not list and kind is not tuple:
        return kind in _ALLOWED_SCALARS
    for item in obj:
        if type(item) not in _ALLOWED_SCALARS and not _plain(item):
            return False
    return True


def _check_exact(obj, path=()):
    """Refuse what canonical JSON cannot carry exactly.  ``path`` holds the
    indices and keys down to ``obj`` and is spelled out only in an error."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return
    if isinstance(obj, float):
        raise MalformedPayload(f"floating point value at {_spelled(path)}; all numbers must be exact")
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _check_exact(item, (*path, i))
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise MalformedPayload(f"non-string key {key!r} at {_spelled(path)}")
            _check_exact(value, (*path, key))
        return
    raise MalformedPayload(f"unserializable value {obj!r} at {_spelled(path)}")


def canonical_dumps(obj) -> str:
    """Serialize to the canonical form; rejects floats anywhere."""
    if not _plain(obj):
        _check_exact(obj)
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    except ValueError:  # an int over sys.get_int_max_str_digits() digits
        raise BudgetExceeded.digits() from None


def content_hash(obj) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()


def hash_lines(lines) -> str:
    """SHA-256 over newline-joined canonical lines (for JSON-lines streams)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()
