"""Pure-Python ECDSA over secp256k1 with RFC-6979 deterministic nonces.

This is the signature scheme the (simulated) SGX enclave uses to sign
block digests, and the scheme blockchain accounts use to authorize
transactions.  Signature checks are the constant in DCert's
"constant-cost client", so the scalar multiplications are built for
speed, on the standard library alone:

* ``k·G`` (signing, key derivation): a fixed-base comb table for ``G``,
  the scalar recoded into signed 8-bit digits: at most 33 mixed
  additions and no doublings;
* ``u1·G + u2·Q`` (verification): one interleaved Straus pass over a
  wide static table of odd multiples of ``G`` and a width-5 table for
  ``Q``; the GLV endomorphism splits each scalar in two 128-bit halves,
  so four wNAF expansions share one 128-step doubling chain (not 256);
* a key the caller has *authenticated* (a client's ``pk_enc`` once its
  attestation report checked out) can be pinned: a comb table of its own
  (6-bit digits, at most 43 additions) in a small LRU, so verifying
  against it is at most 76 additions, no doublings and — the result
  being compared in Jacobian form — no field inversion.
  Tables are derived state, never serialized or counted as storage;
* RFC-6979 nonces keep signatures deterministic, low-s normalization
  (BIP-62) keeps them non-malleable.

Signatures and verdicts are bit-identical to the double-and-add engine
this replaced (the oracle in ``tests/crypto/test_ecdsa_engine.py``).
Like it, the code is **variable-time**: table indices and wNAF digits
depend on secret scalars.  That is acceptable only because the enclave
is simulated in one process with no co-resident attacker to time it;
this module must never become a real signer.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from functools import cache

from repro.errors import CryptoError, SignatureError

# secp256k1 domain parameters (SEC 2, section 2.4.1).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
# The GLV endomorphism: λ·(x, y) = (β·x, y), with λ³ ≡ 1 (mod n) and
# β³ ≡ 1 (mod p); (a1, b1), (a2, b2) is the short basis of the lattice
# {(a, b) : a + b·λ ≡ 0 (mod n)} that libsecp256k1 uses.
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_GLV_A1 = _GLV_B2 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8

#: A point is ``None`` (infinity) or an affine ``(x, y)`` pair.
Point = tuple[int, int] | None

_JPoint = tuple[int, int, int]  # Jacobian (X, Y, Z); Z == 0 is infinity.
_J_INFINITY: _JPoint = (1, 1, 0)
_CombTable = list[list[tuple[int, int]]]  # rows of affine points, see _comb_table

#: Comb digit widths, constants picked on `tip-follow` (7/6, 7/5, 6/5 are
#: slower).  A table is ceil(257 / width) rows of 2**(width-1) points: 33 x 128
#: for ``G`` (once per process), 43 x 32 for a pinned key (_PINNED_LIMIT kept).
_G_COMB_WIDTH = 8
_PINNED_COMB_WIDTH = 6
#: wNAF widths: ``G``'s table is built once, ``Q``'s per verification.
_G_WNAF_WIDTH = 8
_Q_WNAF_WIDTH = 5
#: Pinned per-key comb tables kept at once (least recently used goes).
_PINNED_LIMIT = 8


def _from_jacobian(point: _JPoint) -> Point:
    return None if point[2] == 0 else _normalise([point])[0]


def _normalise(points: list[_JPoint]) -> list[tuple[int, int]]:
    """Affine forms of finite Jacobian points, one inversion for all."""
    partial = [1]
    for _x, _y, z in points:
        partial.append(partial[-1] * z % P)
    inverse = pow(partial[-1], -1, P)
    affine = []
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = inverse * partial[index] % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        affine.append((x * z_inv2 % P, y * z_inv2 * z_inv % P))
    affine.reverse()
    return affine


def _j_double(point: _JPoint, times: int = 1) -> _JPoint:
    """``2**times · point``."""
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    for _ in range(times):
        y2 = (y * y) % P
        s = (4 * x * y2) % P
        m = (3 * x * x) % P  # a == 0 for secp256k1
        x = (m * m - 2 * s) % P
        z = (2 * y * z) % P
        y = (m * (s - x) - 8 * y2 * y2) % P
    return (x, y, z)


def _j_add_affine(p1: _JPoint, p2: tuple[int, int]) -> _JPoint:
    """Mixed addition: ``p2`` is affine (Z == 1) and finite, which takes
    eleven multiplications where two Jacobian points take sixteen."""
    x1, y1, z1 = p1
    x2, y2 = p2
    if z1 == 0:
        return (x2, y2, 1)
    z12 = (z1 * z1) % P
    h = (x2 * z12 - x1) % P
    r = (y2 * z12 * z1 - y1) % P
    if h == 0:
        return _j_double(p1) if r == 0 else _J_INFINITY
    h2 = (h * h) % P
    h3 = (h2 * h) % P
    x1h2 = (x1 * h2) % P
    nx = (r * r - h3 - 2 * x1h2) % P
    ny = (r * (x1h2 - nx) - y1 * h3) % P
    return (nx, ny, (h * z1) % P)


def _comb_table(point: tuple[int, int], width: int) -> _CombTable:
    """Row ``i`` holds the affine ``j · 2**(width·i) · point`` for ``j`` in
    1..2**(width-1): the magnitudes of a signed ``width``-bit digit.  257
    bits of rows, so the carry out of a 256-bit scalar has one to land in;
    one inversion per row, so only the kept table is ever held whole."""
    table = []
    base = point
    for _ in range(-(-257 // width)):
        multiples = [(*base, 1)]
        for _ in range((1 << (width - 1)) - 1):
            multiples.append(_j_add_affine(multiples[-1], base))
        multiples.append(_j_double(multiples[-1]))  # the next row's base
        *row, base = _normalise(multiples)
        table.append(row)
    return table


def _signed_digits(scalar: int, width: int, rows: int) -> list[int]:
    """``scalar`` in [0, 2**256) as ``rows`` digits of ``width`` bits, lowest
    first, each in [-2**(width-1), 2**(width-1)): half the radix is added to
    every digit at once (the carries ripple in one addition) and taken off
    each window, which leaves the last row the carry out of bit 255."""
    half = 1 << (width - 1)
    mask = 2 * half - 1
    scalar += half * (((1 << width * rows) - 1) // mask)
    return [(scalar >> at & mask) - half for at in range(0, width * rows, width)]


def _comb_mul(table: _CombTable, scalar: int, start: _JPoint = _J_INFINITY) -> _JPoint:
    """``start + scalar · B`` for the table's base ``B`` and a scalar in
    [0, n): one mixed addition per non-zero digit, no doublings.  The
    digit width is the table's (a row has ``2**(width-1)`` points)."""
    x1, y1, z1 = start
    width = len(table[0]).bit_length()
    for row, digit in zip(table, _signed_digits(scalar, width, len(table))):
        if not digit:
            continue
        x2, y2 = row[abs(digit) - 1]
        if digit < 0:
            y2 = P - y2
        # _j_add_affine, written out: this loop is the client's constant.
        z12 = (z1 * z1) % P
        h = (x2 * z12 - x1) % P
        if h == 0 or z1 == 0:
            x1, y1, z1 = _j_add_affine((x1, y1, z1), (x2, y2))
            continue
        r = (y2 * z12 * z1 - y1) % P
        h2 = (h * h) % P
        h3 = (h2 * h) % P
        x1h2 = (x1 * h2) % P
        x1 = (r * r - h3 - 2 * x1h2) % P
        y1 = (r * (x1h2 - x1) - y1 * h3) % P
        z1 = (h * z1) % P
    return (x1, y1, z1)


def _odd_multiples(point: tuple[int, int], width: int) -> dict[int, tuple[int, int]]:
    """The wNAF table of ``point``: affine ``d · point`` for every odd
    ``|d| < 2**(width-1)``, negatives included (a sign flip of y)."""
    multiples = [(*point, 1)]
    twice = _from_jacobian(_j_double(multiples[0]))
    for _ in range((1 << (width - 2)) - 1):
        multiples.append(_j_add_affine(multiples[-1], twice))
    table = {}
    for index, (x, y) in enumerate(_normalise(multiples)):
        table[2 * index + 1] = (x, y)
        table[-2 * index - 1] = (x, P - y)
    return table


def _wnaf(scalar: int, width: int) -> list[tuple[int, int]]:
    """Width-``width`` non-adjacent form of ``scalar`` as its non-zero
    ``(bit position, digit)`` terms, lowest first: digits are odd with
    ``|d| < 2**(width-1)`` and positions at least ``width`` apart."""
    terms = []
    position = 0
    full = 1 << width
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (full - 1)
        if digit >= full >> 1:
            digit -= full
        scalar -= digit
        terms.append((position, digit))
    return terms


@cache
def _generator_tables() -> tuple[_CombTable, dict[int, tuple[int, int]]]:
    """``G``'s comb table and wNAF table, built on first use."""
    return _comb_table((GX, GY), _G_COMB_WIDTH), _odd_multiples((GX, GY), _G_WNAF_WIDTH)


def _split(scalar: int) -> tuple[int, int]:
    """GLV decomposition: ``(k1, k2)`` with ``k1 + k2·λ ≡ scalar (mod n)``
    and ``|k1|, |k2| < 2**128`` — the lattice point nearest to
    ``(scalar, 0)`` subtracted from it, by rounded division."""
    c1 = (_GLV_B2 * scalar + N // 2) // N
    c2 = (-_GLV_B1 * scalar + N // 2) // N
    return scalar - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


def _straus(u1: int, u2: int, point: tuple[int, int]) -> _JPoint:
    """``u1·G + u2·point`` for scalars in [0, n) in one interleaved pass.
    Each scalar splits in two 128-bit halves (GLV): ``k1`` reads its
    base's wNAF table, ``k2`` the table's image under ``λ·(x, y) =
    (β·x, y)``, and the four wNAF expansions share a single 128-step
    doubling chain."""
    terms = []
    for scalar, table, width in (
        (u1, _generator_tables()[1], _G_WNAF_WIDTH),
        (u2, _odd_multiples(point, _Q_WNAF_WIDTH), _Q_WNAF_WIDTH),
    ):
        for half, beta in zip(_split(scalar), (1, _BETA)):
            for at, digit in _wnaf(abs(half), width):
                x, y = table[digit if half > 0 else -digit]
                terms.append((at, (x * beta % P, y)))
    terms.sort(reverse=True)  # highest bit position first
    result = _J_INFINITY
    position = 0  # of the last term added; doubling infinity is a no-op
    for at, multiple in terms:
        result = _j_add_affine(_j_double(result, position - at), multiple)
        position = at
    return _j_double(result, position)


#: Comb tables of pinned keys, least recently used first.
_pinned: OrderedDict[tuple[int, int], _CombTable] = OrderedDict()


def pin_public_point(public: Point) -> None:
    """Give ``public`` a comb table: verifying against it then costs 0.45 ms
    instead of 1.1, building it 14 ms (twelve verifications; even after 20
    checks, 7 tips) and 250 KB.  Only for keys the caller has *authenticated*
    and will meet again: pinning whatever a message names would sell 14 ms of
    CPU per forgery and evict the tables that matter (8 x 250 KB at most)."""
    if public is None or not is_on_curve(public):
        raise SignatureError("invalid public key point")
    if public not in _pinned:
        _pinned[public] = _comb_table(public, _PINNED_COMB_WIDTH)
    _pinned.move_to_end(public)
    if len(_pinned) > _PINNED_LIMIT:
        _pinned.popitem(last=False)


def point_mul(point: Point, scalar: int) -> Point:
    """Multiply an affine ``point`` by ``scalar`` on secp256k1."""
    if point is None:
        return None
    return _from_jacobian(_straus(0, scalar % N, point))


def point_add(p1: Point, p2: Point) -> Point:
    """Add two affine points on secp256k1."""
    if p1 is None or p2 is None:
        return p1 or p2
    return _from_jacobian(_j_add_affine((*p1, 1), p2))


def generator() -> Point:
    """Return the secp256k1 base point G."""
    return (GX, GY)


def is_on_curve(point: Point) -> bool:
    """Check whether ``point`` satisfies y^2 = x^3 + 7 (mod p)."""
    if point is None:
        return True
    x, y = point
    return (y * y - (x * x * x + A * x + B)) % P == 0


def derive_public_point(secret: int) -> Point:
    """Return the public point ``secret * G``; ``secret`` must be in [1, n)."""
    if not 1 <= secret < N:
        raise CryptoError("secret scalar out of range")
    return _from_jacobian(_comb_mul(_generator_tables()[0], secret))


def _bits2int(data: bytes) -> int:
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - N.bit_length()
    if excess > 0:
        value >>= excess
    return value


def rfc6979_nonce(secret: int, msg_hash: bytes, extra: bytes = b"") -> int:
    """Derive the deterministic ECDSA nonce k per RFC 6979 (HMAC-SHA256)."""
    h1 = _bits2int(msg_hash) % N
    key_material = secret.to_bytes(32, "big") + h1.to_bytes(32, "big") + extra
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + key_material, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + key_material, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits2int(v)
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign_digest(secret: int, msg_hash: bytes) -> tuple[int, int]:
    """Sign a 32-byte message hash; returns the (r, s) pair with low s."""
    if len(msg_hash) != 32:
        raise CryptoError("message hash must be 32 bytes")
    z = _bits2int(msg_hash) % N
    attempt = 0
    while True:
        extra = attempt.to_bytes(4, "big") if attempt else b""
        k = rfc6979_nonce(secret, msg_hash, extra)
        point = _from_jacobian(_comb_mul(_generator_tables()[0], k))
        assert point is not None
        r = point[0] % N
        if r == 0:
            attempt += 1
            continue
        k_inv = pow(k, -1, N)
        s = (k_inv * (z + r * secret)) % N
        if s == 0:
            attempt += 1
            continue
        if s > N // 2:  # low-s normalization (BIP-62)
            s = N - s
        return (r, s)


def verify_digest(public: Point, msg_hash: bytes, signature: tuple[int, int]) -> bool:
    """Verify an (r, s) signature over a 32-byte message hash."""
    if public is None or not is_on_curve(public):
        raise SignatureError("invalid public key point")
    if len(msg_hash) != 32:
        raise SignatureError("message hash must be 32 bytes")
    r, s = signature
    if not (1 <= r < N and 1 <= s < N):
        return False
    z = _bits2int(msg_hash) % N
    s_inv = pow(s, -1, N)
    u1 = (z * s_inv) % N
    u2 = (r * s_inv) % N
    table = _pinned.get(public)
    if table is not None:
        _pinned.move_to_end(public)
        total = _comb_mul(table, u2, _comb_mul(_generator_tables()[0], u1))
    else:
        total = _straus(u1, u2, public)
    # x/z² mod n == r without the inversion: x/z² < p < 2n, so it is r or
    # r + n, and the latter only if that is still below p.
    x, _y, z = total
    z2 = (z * z) % P
    return z != 0 and (
        (r * z2 - x) % P == 0 or (r + N < P and ((r + N) * z2 - x) % P == 0)
    )
