"""Wire codec: library dataclasses ⇄ canonical JSON bytes.

The RPC layer (:mod:`repro.net.rpc`) must move query requests, query
answers (proofs included), headers, and certificates between nodes as
*bytes*, so that fault injection can corrupt them the way a real
network would and so no Python object is ever shared across the
simulated trust boundary.

Every payload type in this library is a plain (frozen, slotted)
dataclass of primitives, ``bytes``, tuples, dicts, and other such
dataclasses, so one recursive codec covers them all:

* primitives pass through JSON;
* ``bytes`` become ``{"!b": "<hex>"}``;
* tuples/lists/dicts are tagged to round-trip their exact type;
* a dataclass becomes ``{"!dc": "<module>:<qualname>", "!f": {...}}``
  and is reconstructed by importing that class — restricted to
  ``repro.*`` modules, and re-running ``__post_init__`` validation, so
  decoding is not an arbitrary-code gadget and structurally invalid
  field values (a tampered public key off the curve, say) fail here.

Decoding accepts exactly these shapes (table in docs/network.md); any
other object, like every decode failure, is a :class:`repro.errors
.WireError` — to callers a corrupted response (``ResponseIntegrityError``).
"""

from __future__ import annotations

import dataclasses
import importlib
import json

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
    """Serialize ``obj`` to canonical JSON bytes."""
    return json.dumps(_pack(obj), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


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


def _pack(obj: object) -> object:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {_BYTES: obj.hex()}
    if isinstance(obj, tuple):
        return {_TUPLE: [_pack(item) for item in obj]}
    if isinstance(obj, list):
        return {_LIST: [_pack(item) for item in obj]}
    if isinstance(obj, dict):
        return {_DICT: [[_pack(k), _pack(v)] for k, v in obj.items()]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        if not cls.__module__.startswith("repro."):
            raise WireError(f"refusing to encode non-library type {cls!r}")
        return {
            _DATACLASS: f"{cls.__module__}:{cls.__qualname__}",
            _FIELDS: {
                field.name: _pack(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    raise WireError(f"unserializable value of type {type(obj).__name__}")


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
