"""One structural mutator for every untrusted input.

:func:`sites` walks a value the way ``repro.net.wire`` does — dataclass
fields, tuple and list items, dict values, leaves — so the same walk
serves a decoded object and the JSON tree of its wire encoding.
:func:`put` rebuilds the value with the node at one path replaced:
dataclasses are rebuilt without running ``__post_init__`` (a host, or a
forger editing decoded objects, is not bound by it) unless
``checked=True`` asks for ``dataclasses.replace``.  An input a peer
sends is mutated as its wire JSON tree — the same walk — and decoded with
``wire.decode``, so each class's own checks take part as they would on a
peer's bytes.

:data:`RULES` is the one table of one-edit rules (docs/testing.md,
Layer 2); :func:`mutants` applies them wherever a plan says, and drops
the edits that change nothing.  Every enumerator in the suite is a plan
over this table.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError

#: The leaves the boundary tests swap in: one per shape a caller may hand over.
PALETTE = (None, True, 1.5, "1", b"x", -1, 0, ())

_COPY = object()  # "longer" default: repeat the neighbouring element


def _is_dataclass(value) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def sites(value, path=()):
    """Every ``(path, node)`` under ``value``, root first, depth first."""
    yield path, value
    if _is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from sites(getattr(value, field.name), (*path, field.name))
    elif isinstance(value, (tuple, list)):
        for index, item in enumerate(value):
            yield from sites(item, (*path, index))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from sites(item, (*path, key))


def get(value, path):
    for step in path:
        value = getattr(value, step) if _is_dataclass(value) else value[step]
    return value


def put(value, path, new, *, checked=False):
    """``value`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    head, *rest = path
    if not _is_dataclass(value):
        inner = put(value[head], rest, new, checked=checked)
        if isinstance(value, tuple):
            return value[:head] + (inner,) + value[head + 1 :]
        copy = type(value)(value)  # a list or a dict
        copy[head] = inner
        return copy
    inner = put(getattr(value, head), rest, new, checked=checked)
    if checked:
        return dataclasses.replace(value, **{head: inner})
    clone = object.__new__(type(value))
    for field in dataclasses.fields(value):
        object.__setattr__(clone, field.name, getattr(value, field.name))
    object.__setattr__(clone, head, inner)
    return clone


# -- the rule table -------------------------------------------------------------


def _palette(node, values=PALETTE):
    return [(repr(value), value) for value in values]


def _list(node):  # tuple <-> list
    if isinstance(node, tuple):
        return [("list", list(node))]
    return [("tuple", tuple(node))]


def _shorter(node, at=(-1, 0)):
    """One element dropped, at each position in ``at``."""
    return [
        (f"drop[{i}]", node[:i] + node[i + 1 :] if i != -1 else node[:-1])
        for i in at
        if node
    ]


def _longer(node, extra=_COPY, at=None):
    """One element inserted at each position in ``at`` (default: the
    end) — ``extra``, or a copy of the element it lands beside."""
    out = []
    for i in (len(node),) if at is None else at:
        item = extra
        if extra is _COPY:
            item = node[min(i, len(node) - 1)] if node else 0
        label = f"insert[{i}]" if extra is _COPY else f"insert[{i}]={extra!r}"
        out.append((label, node[:i] + type(node)([item]) + node[i:]))
    return out


def _retype(node):  # int -> float / str / bool
    out = [("float", float(node)), ("str", str(node))]
    return out + [("bool", bool(node))] if node in (0, 1) else out


def _edge(node, by=1):  # the range edges either side
    return [(f"-{by}", node - by), (f"+{by}", node + by)]


def _bits(node, width):  # one bit of an integer mask toggled
    return [(f"bit{bit}", node ^ 1 << bit) for bit in range(width)]


def _digest(node):  # one byte changed
    return [("flipped", bytes([node[0] ^ 1]) + node[1:] if node else b"\x01")]


def _resize(node):  # one byte shorter, one longer
    return [("shorter", node[:-1]), ("longer", node + b"\x00")]


def _bytes(node):  # bytes -> bytearray / hex str
    return [("bytearray", bytearray(node)), ("hex", node.hex())]


def _retag(node, twins=None):
    """The same content under a sibling class: ``!t`` <-> ``!l`` in a wire
    tree, or the ``twins`` a caller spells for an object."""
    if twins is not None:
        return list(twins)
    tag = next(iter(node))
    other = {"!t": "!l", "!l": "!t"}[tag]
    return [(f"{tag}->{other}", {other: node[tag]})]


RULES = {
    "palette": _palette,
    "none": lambda node: [("none", None)],
    "list": _list,
    "shorter": _shorter,
    "longer": _longer,  # with a step as ``extra``: a trailing extra step
    "retype": _retype,
    "edge": _edge,
    "bits": _bits,
    "digest": _digest,
    "resize": _resize,
    "bytes": _bytes,
    "retag": _retag,
}


def edits(node, spec):
    """``(label, replacement)`` of one rule spec: a name, or ``(name, params)``."""
    name, params = (spec, {}) if isinstance(spec, str) else spec
    return [(f"{name}:{label}", new) for label, new in RULES[name](node, **params)]


def _changes(node, new) -> bool:
    return type(new) is not type(node) or new != node


def mutants(value, plan, *, checked=False):
    """``(path, label, mutant)`` for every edit ``plan(path, node)`` asks
    for at every site of ``value`` that changes it."""
    for path, node in sites(value):
        for spec in plan(path, node):
            for label, new in edits(node, spec):
                if not _changes(node, new):
                    continue
                try:
                    mutant = put(value, path, new, checked=checked)
                except (TypeError, ValueError, ReproError):
                    continue  # the class refuses it: on the wire, a WireError
                yield path, label, mutant


def first(value, path, spec):
    """``value`` with the first edit of ``spec`` made at ``path``."""
    return put(value, path, edits(get(value, path), spec)[0][1])


def boundary_plan(path, node):
    """The plan every ecall argument gets: the palette everywhere, and
    the rules of the node's own shape."""
    yield "palette"
    if isinstance(node, (tuple, list)):
        yield from ("list", ("shorter", {"at": (-1,)}), "longer")
    elif isinstance(node, bytes):
        yield from ("bytes", "resize", "digest")
    elif type(node) is int:
        yield from ("retype", "edge")
