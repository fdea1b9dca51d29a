"""Wire codec: library dataclasses ⇄ canonical JSON bytes.

Requests, answers (proofs included), headers and certificates cross
the simulated trust boundary as *bytes*, so faults corrupt them as a
real network would and no object is shared.  ``encode`` writes each
value's one tagged JSON shape, one emitter per exact type; ``decode``
accepts exactly those shapes (any other is a :class:`WireError`) and
re-runs each ``repro.*`` dataclass's ``__post_init__``.  The shapes and
the bound on both per-class tables: docs/network.md, "The wire codec".
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from json.encoder import encode_basestring_ascii as _text

from repro.errors import WireError

_BYTES = "!b"
_TUPLE = "!t"
_LIST = "!l"
_DICT = "!d"
_DATACLASS = "!dc"
_FIELDS = "!f"

_NESTED = (dict, list)
#: ``module:qualname`` -> class, written only by :func:`_resolve` after
#: every check passed: one entry per library dataclass at most, however
#: many paths a peer invents (a refused path, or an alias, is not kept).
_CLASSES: dict[str, type] = {}


def encode(obj: object) -> bytes:
    """Serialize ``obj`` to canonical JSON bytes (sorted keys, no spaces)."""
    return _EMITTERS[type(obj)](obj).encode()


class _Emitters(dict):
    """Exact type -> its emitter (docs/network.md, "The wire codec")."""

    def __missing__(self, cls: type):
        for base in (str, int, float, bytes, tuple, list, dict):  # json's order
            if issubclass(cls, base):
                return self[base]  # a subclass is answered, not kept
        if not dataclasses.is_dataclass(cls):
            raise WireError(f"unserializable value of type {cls.__name__}")
        if not cls.__module__.startswith("repro."):
            raise WireError(f"refusing to encode non-library type {cls!r}")
        path = _text(f"{cls.__module__}:{cls.__qualname__}")
        head = f'{{"{_DATACLASS}":{path},"{_FIELDS}":{{'
        names = sorted(field.name for field in dataclasses.fields(cls))
        keys = [(_text(name) + ":", name) for name in names]

        def emit(obj) -> str:
            parts = [key + _EMITTERS[type(v := getattr(obj, n))](v) for key, n in keys]
            return head + ",".join(parts) + "}}"

        self[cls] = emit  # the one row this library dataclass gets
        return emit


def _items(tag: str):
    return lambda obj: f'{{"{tag}":[' + ",".join(
        [_EMITTERS[type(v)](v) for v in obj]
    ) + "]}"


_EMITTERS = _Emitters({
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: int.__repr__,
    float: json.dumps,  # NaN / Infinity as json writes them
    str: _text,
    bytes: lambda obj: f'{{"{_BYTES}":"{obj.hex()}"}}',
    tuple: _items(_TUPLE),
    list: _items(_LIST),
    dict: lambda obj: f'{{"{_DICT}":[' + ",".join(
        [f"[{_EMITTERS[type(k)](k)},{_EMITTERS[type(v)](v)}]" for k, v in obj.items()]
    ) + "]}",
})


def decode(data: bytes) -> object:
    """Reconstruct the object encoded in ``data``.

    Raises :class:`WireError` on malformed JSON, a shape ``encode`` does
    not write, an unregisterable class, or a value the class rejects.
    """
    try:
        return _unpack(json.loads(data.decode("utf-8")))
    except WireError:
        raise
    except Exception as exc:  # tampered values fail loudly, not quietly
        raise WireError(f"undecodable wire bytes: {exc}") from exc


def _unpack(raw: object) -> object:
    if type(raw) is not dict:
        if type(raw) is list:
            raise WireError("bare JSON arrays are not produced by this codec")
        return raw  # str / int / float / bool / None: all json.loads has left
    if len(raw) == 1:
        ((tag, body),) = raw.items()
        if tag == _BYTES and type(body) is str:
            return bytes.fromhex(body)
        if type(body) is list:
            if tag == _TUPLE:
                return tuple([_unpack(v) if type(v) in _NESTED else v for v in body])
            if tag == _LIST:
                return [_unpack(v) if type(v) in _NESTED else v for v in body]
            if tag == _DICT and all(type(pair) is list for pair in body):
                return {_unpack(k): _unpack(v) for k, v in body}
    elif len(raw) == 2 and _DATACLASS in raw and type(raw.get(_FIELDS)) is dict:
        path = raw[_DATACLASS]
        fields = raw[_FIELDS].items()
        return (_CLASSES.get(path) or _resolve(path))(
            **{name: _unpack(v) if type(v) in _NESTED else v for name, v in fields}
        )
    raise WireError(f"not a shape this codec writes: {sorted(raw)}")


def _resolve(path: object) -> type:
    """Import and remember the ``module:qualname`` dataclass (repro.* only)."""
    if not isinstance(path, str) or ":" not in path:
        raise WireError(f"malformed dataclass reference {path!r}")
    module_name, _, qualname = path.partition(":")
    if not module_name.startswith("repro."):
        raise WireError(f"refusing to import non-library module {module_name!r}")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"unknown wire type {path!r}: {exc}") from exc
    if not (isinstance(target, type) and dataclasses.is_dataclass(target)):
        raise WireError(f"wire type {path!r} is not a dataclass")
    if path != f"{target.__module__}:{target.__qualname__}":
        raise WireError(f"wire type {path!r} is an alias, not the path encode writes")
    _CLASSES[path] = target
    return target
