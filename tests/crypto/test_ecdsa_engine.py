"""The comb / Straus / pinned-table engine against the engine it replaced.

``ref_*`` below is the previous ``repro.crypto.ecdsa`` arithmetic, kept
verbatim as the oracle: Jacobian double-and-add with a fixed 4-bit
window and Fermat inversions, sharing no code with the module under
test.  Signatures, public points and every verdict must be bit-identical
to it.
"""

import hashlib
import random
from contextlib import contextmanager

import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import GX, GY, N, P
from repro.crypto.hashing import sha256
from repro.errors import SignatureError
from tests.proptest.framework import case_count, run_cases

G = (GX, GY)
REF_INFINITY = (1, 1, 0)


def ref_from_jacobian(point):
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, P - 2, P)
    z_inv2 = (z_inv * z_inv) % P
    return ((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def ref_double(point):
    x, y, z = point
    if z == 0 or y == 0:
        return REF_INFINITY
    y2 = (y * y) % P
    s = (4 * x * y2) % P
    m = (3 * x * x) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * y2 * y2) % P
    return (nx, ny, (2 * y * z) % P)


def ref_add(p1, p2):
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z12, z22 = (z1 * z1) % P, (z2 * z2) % P
    u1, u2 = (x1 * z22) % P, (x2 * z12) % P
    s1, s2 = (y1 * z22 * z2) % P, (y2 * z12 * z1) % P
    if u1 == u2:
        return ref_double(p1) if s1 == s2 else REF_INFINITY
    h, r = (u2 - u1) % P, (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h2 * h) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    return (nx, ny, (h * z1 * z2) % P)


def ref_mul(point, scalar):
    """The deleted ``_j_mul``: fixed 4-bit window double-and-add."""
    scalar %= N
    if scalar == 0 or point is None:
        return REF_INFINITY
    table = [REF_INFINITY, (point[0], point[1], 1)]
    for _ in range(14):
        table.append(ref_add(table[-1], table[1]))
    result = REF_INFINITY
    for nibble_index in range((scalar.bit_length() + 3) // 4 - 1, -1, -1):
        for _ in range(4):
            result = ref_double(result)
        nibble = (scalar >> (4 * nibble_index)) & 0xF
        if nibble:
            result = ref_add(result, table[nibble])
    return result


def ref_equals(jacobian, affine):
    """Whether a reference Jacobian point is the affine ``affine``,
    without paying a Fermat inversion to find out."""
    x, y, z = jacobian
    if z == 0 or affine is None:
        return z == 0 and affine is None
    z2 = z * z % P
    return affine[0] * z2 % P == x and affine[1] * z2 * z % P == y


def ref_double_mul(u1, u2, point):
    return ref_from_jacobian(ref_add(ref_mul(G, u1), ref_mul(point, u2)))


def ref_verify(public, msg_hash, signature):
    r, s = signature
    if not (1 <= r < N and 1 <= s < N):
        return False
    z = int.from_bytes(msg_hash, "big") % N
    s_inv = pow(s, N - 2, N)
    point = ref_double_mul(z * s_inv % N, r * s_inv % N, public)
    return point is not None and point[0] % N == r


def comb_g(scalar):
    return ecdsa._from_jacobian(ecdsa._comb_mul(ecdsa._generator_tables()[0], scalar))


def straus(u1, u2, point):
    return ecdsa._from_jacobian(ecdsa._straus(u1, u2, point))


def pinned_double_mul(u1, u2, point):
    """What ``verify_digest`` computes for a pinned key."""
    start = ecdsa._comb_mul(ecdsa._generator_tables()[0], u1)
    return ecdsa._from_jacobian(ecdsa._comb_mul(ecdsa._pinned[point], u2, start))


@contextmanager
def unpinned(public):
    table = ecdsa._pinned.pop(public, None)
    try:
        yield
    finally:
        if table is not None:
            ecdsa._pinned[public] = table


def verify_both_ways(public, msg_hash, signature):
    """The verdict, after checking the Straus and the pinned-table path
    give the same one."""
    with unpinned(public):
        plain = ecdsa.verify_digest(public, msg_hash, signature)
    ecdsa.pin_public_point(public)
    assert ecdsa.verify_digest(public, msg_hash, signature) == plain
    return plain


# -- differential: 10 000 seeded scalars ---------------------------------------


@pytest.mark.slow
def test_ten_thousand_random_scalars_match_the_reference(pinned_cache):
    """``a·G`` by comb, ``b·Q`` by ``point_mul``, ``a·G + b·Q`` by Straus
    and by ``Q``'s pinned table, for 10 000 scalar pairs.

    Recomputing 20 000 reference multiplications would take a minute, so
    the scalars walk: each pair is the previous one plus a random
    256-bit step whose reference multiple was computed once, and the
    reference point moves by one reference *addition*.  Every 100th pair
    is also recomputed from scratch with ``ref_mul``.
    """
    rng = random.Random(0xD0CE)
    q = ecdsa.derive_public_point(rng.randrange(1, N))
    ecdsa.pin_public_point(q)
    steps = [rng.randrange(1, N) for _ in range(48)]
    g_steps = [ref_mul(G, step) for step in steps]
    q_steps = [ref_mul(q, step) for step in steps]
    a, b = rng.randrange(N), rng.randrange(N)
    ref_a, ref_b = ref_mul(G, a), ref_mul(q, b)
    for index in range(10_000):
        i, j = rng.randrange(48), rng.randrange(48)
        a, ref_a = (a + steps[i]) % N, ref_add(ref_a, g_steps[i])
        b, ref_b = (b + steps[j]) % N, ref_add(ref_b, q_steps[j])
        if index % 100 == 0:
            assert ref_from_jacobian(ref_a) == ref_from_jacobian(ref_mul(G, a))
            assert ref_from_jacobian(ref_b) == ref_from_jacobian(ref_mul(q, b))
        total = ref_add(ref_a, ref_b)
        assert ref_equals(ref_a, comb_g(a))
        assert ref_equals(ref_b, ecdsa.point_mul(q, b))
        assert ref_equals(total, straus(a, b, q))
        assert ref_equals(total, pinned_double_mul(a, b, q))


# -- signatures stay byte-identical --------------------------------------------


def test_rfc6979_secp256k1_vector():
    """The widely published secp256k1 / SHA-256 deterministic-nonce
    vector (key 1, "Satoshi Nakamoto")."""
    digest = sha256(b"Satoshi Nakamoto")
    assert ecdsa.rfc6979_nonce(1, digest) == (
        0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15
    )
    assert ecdsa.sign_digest(1, digest) == (
        0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
        0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5,
    )


def test_signatures_and_public_points_are_those_of_the_old_engine():
    """64 (key, message) pairs: SHA-256 over ``r || s || x || y`` as the
    double-and-add engine produced them (recorded at the parent commit),
    and each signature verifies under the reference verifier too."""
    recorded = hashlib.sha256()
    for index in range(64):
        secret = int.from_bytes(sha256(b"golden-key-%d" % index), "big") % (N - 1) + 1
        digest = sha256(b"golden-message-%d" % index)
        r, s = ecdsa.sign_digest(secret, digest)
        public = ecdsa.derive_public_point(secret)
        assert public == ref_from_jacobian(ref_mul(G, secret))
        assert ref_verify(public, digest, (r, s))
        recorded.update(b"".join(v.to_bytes(32, "big") for v in (r, s, *public)))
    assert recorded.hexdigest() == (
        "c40b496e45bdd7bac946adc8920f94a4b48855c1abeb5547ee564c266cc428cd"
    )


# -- edge cases mixed addition must survive ------------------------------------


LAMBDA_G = (ecdsa._BETA * GX % P, GY)


@pytest.mark.parametrize(
    "q",
    [
        G, (GX, P - GY), ref_from_jacobian(ref_double((GX, GY, 1))),
        LAMBDA_G, (LAMBDA_G[0], P - GY), (ecdsa._BETA * LAMBDA_G[0] % P, GY),
    ],
    ids=["Q=G", "Q=-G", "Q=2G", "Q=lambda*G", "Q=-lambda*G", "Q=lambda^2*G"],
)
def test_straus_when_the_key_is_a_small_multiple_of_g(q, pinned_cache):
    """The accumulator meets a table entry equal or opposite to itself:
    mixed addition has to fall back to doubling, or to infinity."""
    ecdsa.pin_public_point(q)
    rng = random.Random(17)
    pairs = [(rng.randrange(N), rng.randrange(N)) for _ in range(40)]
    pairs += [(1, 1), (1, N - 1), (2, N - 1), (N - 2, 1), (3, 5), (0, 1), (1, 0), (0, 0)]
    for u1, u2 in pairs:
        expected = ref_double_mul(u1, u2, q)
        assert straus(u1, u2, q) == expected
        assert pinned_double_mul(u1, u2, q) == expected


# -- GLV: the endomorphism, the split, and streams that collide ----------------

BASIS = (ecdsa._GLV_A1, -ecdsa._GLV_B1, ecdsa._GLV_A2, ecdsa._GLV_B2)


def test_glv_constants():
    beta, lam = ecdsa._BETA, ecdsa._LAMBDA
    assert beta != 1 and pow(beta, 3, P) == 1
    assert lam != 1 and pow(lam, 3, N) == 1
    assert ref_from_jacobian(ref_mul(G, lam)) == LAMBDA_G
    # Both basis vectors lie in the lattice {(a, b): a + b*lambda = 0 mod n}.
    assert (ecdsa._GLV_A1 + ecdsa._GLV_B1 * lam) % N == 0
    assert (ecdsa._GLV_A2 + ecdsa._GLV_B2 * lam) % N == 0


def test_split_recomposes_into_two_128_bit_halves_of_either_sign():
    rng = random.Random(0x61F)
    lam = ecdsa._LAMBDA
    scalars = [0, 1, N - 1, lam, N - lam, 2**128 - 1, 2**128 + 1, *BASIS]
    scalars += [N - value for value in BASIS]
    scalars += [rng.randrange(N) for _ in range(10_000)]
    signs = set()
    for scalar in scalars:
        k1, k2 = ecdsa._split(scalar)
        assert (k1 + k2 * lam - scalar) % N == 0
        assert abs(k1) < 2**128 and abs(k2) < 2**128
        signs.add((k1 < 0, k2 < 0))
    assert len(signs) == 4
    assert ecdsa._split(lam) == (0, 1) and ecdsa._split(N - lam) == (0, -1)


@pytest.fixture()
def collisions(monkeypatch):
    """Counts the additions whose accumulator is the addend itself
    ("equal": mixed addition must double) or its negative ("opposite":
    the running sum becomes the point at infinity)."""
    seen = {"equal": 0, "opposite": 0}
    add = ecdsa._j_add_affine

    def spying_add(p1, p2):
        x1, y1, z1 = p1
        if z1 and (p2[0] * z1 * z1 - x1) % P == 0:
            seen["equal" if (p2[1] * z1**3 - y1) % P == 0 else "opposite"] += 1
        return add(p1, p2)

    monkeypatch.setattr(ecdsa, "_j_add_affine", spying_add)
    return seen


def test_straus_when_two_streams_meet_at_one_position(collisions):
    """With ``Q = G`` the ``G`` and ``Q`` streams draw on the same points,
    with ``Q = lambda*G`` the ``Q`` stream and ``G``'s endomorphism stream
    do: equal scalars put the same point twice at the top position,
    opposite ones cancel there (infinity mid-chain) or everywhere
    (infinity at the end)."""
    lam, top = ecdsa._LAMBDA, 1 << 100
    cases = [
        # (Q, u1, u2, equal additions, opposite additions)
        (G, 1, 1, 1, 0),
        (G, top + 5, top + 5, 1, 0),
        (G, 1, N - 1, 0, 1),
        (G, top + 5, N - top + 9, 0, 1),  # cancels at bit 100, ends at 14*G
        (G, top + 5, N - top - 5, 0, 2),  # cancels at both positions
        (LAMBDA_G, lam, 1, 1, 0),
        (LAMBDA_G, lam * (top + 5) % N, top + 5, 1, 0),
        (LAMBDA_G, lam, N - 1, 0, 1),
        (LAMBDA_G, lam * (top + 5) % N, N - top + 9, 0, 1),
        (LAMBDA_G, lam * (top + 5) % N, N - top - 5, 0, 2),
    ]
    for q, u1, u2, equal, opposite in cases:
        collisions.update(equal=0, opposite=0)
        assert straus(u1, u2, q) == ref_double_mul(u1, u2, q), (u1, u2)
        assert collisions == {"equal": equal, "opposite": opposite}, (u1, u2)
    assert straus(top + 5, N - top + 9, G) == ref_from_jacobian(ref_mul(G, 14))
    assert straus(top + 5, N - top - 5, G) is None


def test_scalar_edges():
    for scalar in (0, 1, 2, 15, 16, 17, 2**128, 2**255, N - 2, N - 1):
        assert comb_g(scalar) == ref_from_jacobian(ref_mul(G, scalar))
        assert ecdsa.point_mul(G, scalar) == ref_from_jacobian(ref_mul(G, scalar))
    assert ecdsa.point_mul(None, 5) is None
    assert ecdsa.point_mul(G, N) is None


def test_wnaf_terms_recompose_and_are_non_adjacent():
    rng = random.Random(23)
    for width in (2, 5, 8):
        for scalar in [0, 1, N - 1] + [rng.randrange(N) for _ in range(50)]:
            terms = ecdsa._wnaf(scalar, width)
            assert sum(digit << at for at, digit in terms) == scalar
            positions = [at for at, _digit in terms]
            assert all(b - a >= width for a, b in zip(positions, positions[1:]))
            assert all(d % 2 and abs(d) < 1 << (width - 1) for _at, d in terms)


def test_zero_digest_verifies_with_u1_zero(pinned_cache):
    """A digest that is 0 mod n makes ``u1 = 0``: no ``G`` term at all."""
    secret = 0xC0FFEE
    public = ecdsa.derive_public_point(secret)
    for digest in (bytes(32), N.to_bytes(32, "big")):
        signature = ecdsa.sign_digest(secret, digest)
        assert ref_verify(public, digest, signature)
        assert verify_both_ways(public, digest, signature)
        assert not verify_both_ways(public, digest, (signature[0], signature[1] ^ 1))


def test_sum_at_infinity_is_rejected(pinned_cache):
    """``u1·G + u2·Q`` is the point at infinity when ``Q = d·G`` and
    ``z + r·d = 0``: choose ``r`` freely and solve for the digest."""
    secret = 0xBADC0DE
    public = ecdsa.derive_public_point(secret)
    r, s = 0x1234567, 0x7654321
    digest = (-r * secret % N).to_bytes(32, "big")
    assert ref_double_mul(
        int.from_bytes(digest, "big") * pow(s, -1, N) % N, r * pow(s, -1, N) % N, public
    ) is None
    assert verify_both_ways(public, digest, (r, s)) is False


def test_out_of_range_components_are_rejected_on_both_paths(pinned_cache):
    public = ecdsa.derive_public_point(42)
    digest = sha256(b"message")
    r, s = ecdsa.sign_digest(42, digest)
    for signature in ((0, s), (N, s), (r, 0), (r, N), (r + N, s)):
        assert verify_both_ways(public, digest, signature) is False
    assert verify_both_ways(public, digest, (r, s)) is True


def test_invalid_keys_still_raise(pinned_cache):
    digest = sha256(b"message")
    for bad in (None, (1, 2), (GX, GY + 1)):
        with pytest.raises(SignatureError):
            ecdsa.verify_digest(bad, digest, (1, 1))
        with pytest.raises(SignatureError):
            ecdsa.pin_public_point(bad)
    assert not any(key in pinned_cache for key in ((1, 2), (GX, GY + 1)))
    with pytest.raises(SignatureError):
        ecdsa.verify_digest(G, b"short", (1, 1))


def test_tampered_s_fails_on_both_paths(pinned_cache):
    public = ecdsa.derive_public_point(4242)
    digest = sha256(b"message")
    r, s = ecdsa.sign_digest(4242, digest)
    assert verify_both_ways(public, digest, (r, s))
    for tampered in (s + 1, s - 1, s ^ (1 << 200), N - s):
        assert ref_verify(public, digest, (r, tampered)) == (tampered == N - s)
        assert verify_both_ways(public, digest, (r, tampered)) == (tampered == N - s)


# -- pinned and unpinned verdicts agree ----------------------------------------

_KEYS = [int.from_bytes(sha256(b"engine-key-%d" % i), "big") % (N - 1) + 1 for i in range(4)]
_MUTATIONS = ("none", "r+1", "s+1", "flip-r", "flip-s", "swap", "high-s", "other-message")


def test_pinned_and_unpinned_verdicts_agree():
    def prop(rng):
        key = rng.choice(_KEYS)
        message = rng.randbytes(rng.randint(0, 64))
        mutation = rng.choice(_MUTATIONS)
        bit = rng.randrange(256)
        public = ecdsa.derive_public_point(key)
        digest = sha256(message)
        r, s = ecdsa.sign_digest(key, digest)
        if mutation == "r+1":
            r += 1
        elif mutation == "s+1":
            s += 1
        elif mutation == "flip-r":
            r ^= 1 << bit
        elif mutation == "flip-s":
            s ^= 1 << bit
        elif mutation == "swap":
            r, s = s, r
        elif mutation == "high-s":
            s = N - s
        elif mutation == "other-message":
            digest = sha256(message + b"!")
        verdict = verify_both_ways(public, digest, (r, s))
        assert verdict == ref_verify(public, digest, (r, s))
        assert verdict == (mutation in ("none", "high-s"))

    run_cases(prop, cases=case_count(60))


# -- the table cache -----------------------------------------------------------


def test_pinned_tables_are_a_bounded_lru(pinned_cache):
    pinned_cache.clear()
    points = [ecdsa.derive_public_point(1000 + i) for i in range(ecdsa._PINNED_LIMIT + 2)]
    for point in points[: ecdsa._PINNED_LIMIT]:
        ecdsa.pin_public_point(point)
    assert list(pinned_cache) == points[: ecdsa._PINNED_LIMIT]
    # Re-pinning and verifying both count as use.
    ecdsa.pin_public_point(points[0])
    digest = sha256(b"lru")
    assert ecdsa.verify_digest(points[1], digest, ecdsa.sign_digest(1001, digest))
    ecdsa.pin_public_point(points[ecdsa._PINNED_LIMIT])
    ecdsa.pin_public_point(points[ecdsa._PINNED_LIMIT + 1])
    assert len(pinned_cache) == ecdsa._PINNED_LIMIT
    assert points[2] not in pinned_cache and points[3] not in pinned_cache
    assert points[0] in pinned_cache and points[1] in pinned_cache
    # An evicted key still verifies (through Straus), without coming back.
    assert ecdsa.verify_digest(points[2], digest, ecdsa.sign_digest(1002, digest))
    assert points[2] not in pinned_cache


# -- the signed-digit comb ------------------------------------------------------

COMB_SHAPES = [(ecdsa._G_COMB_WIDTH, 33, 128), (ecdsa._PINNED_COMB_WIDTH, 43, 32)]


def comb_edge_scalars(width, rows):
    radix, half = 1 << width, 1 << (width - 1)
    edges = {0, 1, 2, N - 1, N - 2, 2**255, 2**256 - 2**32}
    for i in range(1, rows):
        edges.update((radix**i - 1, radix**i))
    for i in (0, 1, rows // 2, rows - 2):
        edges.update((half + delta) * radix**i for delta in (-1, 0, 1))
    return sorted(scalar for scalar in edges if scalar < 2**256)


def test_table_shapes_are_pinned(pinned_cache):
    """33 x 128 points for ``G``, 43 x 32 per pinned key: the widths are
    constants chosen by measurement, and a change to one shows up here."""
    q = ecdsa.derive_public_point(0x5EED)
    ecdsa.pin_public_point(q)
    tables = (ecdsa._generator_tables()[0], pinned_cache[q])
    for table, (width, rows, row_points) in zip(tables, COMB_SHAPES):
        assert rows == -(-257 // width) and row_points == 1 << (width - 1)
        assert len(table) == rows and {len(row) for row in table} == {row_points}
    assert [sum(map(len, table)) for table in tables] == [4224, 1376]
    assert tables[0][0][0] == G and tables[1][0][0] == q
    assert ecdsa._PINNED_LIMIT == 8


@pytest.mark.parametrize("width, rows, _row_points", COMB_SHAPES)
def test_signed_digits_recompose_within_half_the_radix(width, rows, _row_points):
    rng = random.Random(0xC0B + width)
    half = 1 << (width - 1)
    negative = 0
    scalars = comb_edge_scalars(width, rows) + [rng.randrange(N) for _ in range(10_000)]
    for scalar in scalars:
        digits = ecdsa._signed_digits(scalar, width, rows)
        assert len(digits) == rows
        assert sum(digit << (width * row) for row, digit in enumerate(digits)) == scalar
        assert all(-half <= digit < half for digit in digits)
        negative += any(digit < 0 for digit in digits)
    assert negative > 10_000
    # The carry out of bit 255 has a row of its own to land in.
    top = ecdsa._signed_digits(2**256 - 2**32, width, rows)
    assert top[-1] == (1 if width == 8 else 16) and top[-2] in (0, -1)
    assert ecdsa._signed_digits(half - 1, width, rows)[:2] == [half - 1, 0]
    assert ecdsa._signed_digits(half, width, rows)[:2] == [-half, 1]


def spy_on_special_additions(monkeypatch):
    """Counts the additions the comb loop hands to ``_j_add_affine``
    instead of doing inline: onto the point at infinity, onto the addend
    itself (doubling), onto its negative (the sum becomes infinity).
    Install it once the tables exist: building them adds the usual way."""
    seen = {"infinity": 0, "equal": 0, "opposite": 0}
    add = ecdsa._j_add_affine

    def spying_add(p1, p2):
        x1, y1, z1 = p1
        if z1 == 0:
            seen["infinity"] += 1
        elif (p2[0] * z1 * z1 - x1) % P == 0:
            seen["equal" if (p2[1] * z1**3 - y1) % P == 0 else "opposite"] += 1
        else:
            raise AssertionError("an ordinary addition left the inlined path")
        return add(p1, p2)

    monkeypatch.setattr(ecdsa, "_j_add_affine", spying_add)
    return seen


@pytest.mark.parametrize("pinned", [False, True], ids=["G", "pinned-key"])
def test_comb_matches_the_reference_from_every_kind_of_start(
    pinned, pinned_cache, monkeypatch
):
    """``start + k·B`` against the oracle for the edge scalars and 64
    random ones (10 000 random ones walk through the differential above),
    with ``start`` at infinity, at an unrelated point, and at plus and
    minus the first table point the loop adds — the ``h == 0`` cases of
    the addition written out inside the loop."""
    width, rows, _ = COMB_SHAPES[pinned]
    base = G
    if pinned:
        base = ref_from_jacobian(ref_mul(G, 0x5EED))
        ecdsa.pin_public_point(base)
    table = pinned_cache[base] if pinned else ecdsa._generator_tables()[0]
    special_additions = spy_on_special_additions(monkeypatch)
    rng = random.Random(0xC0B)
    elsewhere = (*ref_from_jacobian(ref_mul(G, 0xE15E)), 1)
    scalars = comb_edge_scalars(width, rows) + [rng.randrange(N) for _ in range(64)]
    for scalar in scalars:
        expected = ref_mul(base, scalar)
        digits = ecdsa._signed_digits(scalar, width, rows)
        row = next((row for row, digit in enumerate(digits) if digit), None)
        starts = [(REF_INFINITY, "infinity"), (elsewhere, None)]
        if row is not None:
            x, y = ref_from_jacobian(ref_mul(base, digits[row] << (width * row)))
            starts += [((x, y, 1), "equal"), ((x, P - y, 1), "opposite")]
        for start, branch in starts:
            before = dict(special_additions)
            got = ecdsa._from_jacobian(ecdsa._comb_mul(table, scalar, start))
            assert ref_equals(ref_add(start, expected), got), (scalar, branch)
            taken = {k: v - before[k] for k, v in special_additions.items() if v != before[k]}
            # (A sum that became infinity takes the next point as it is, and
            # -half·B doubled meets the carry it sent into the next row.)
            assert taken == {} if None in (branch, row) else taken[branch] >= 1
    assert all(special_additions.values())


def on_curve_with_x(candidates):
    """The first ``(x, y)`` on the curve with ``x`` among ``candidates``."""
    for x in candidates:
        y = pow(x**3 + 7, (P + 1) // 4, P)
        if y * y % P == (x**3 + 7) % P:
            return (x, y)
    raise AssertionError("no curve point among the candidates")


def key_for(r, s, z, big_r):
    """The public key under which ``(r, s)`` signs ``z`` with nonce point
    ``big_r``: ``Q = r^-1 (s·R - z·G)``, by the oracle."""
    s_r = ref_mul(big_r, s)
    minus_z_g = ref_mul(G, N - z)
    return ref_from_jacobian(ref_mul(ref_from_jacobian(ref_add(s_r, minus_z_g)), pow(r, -1, N)))


def test_both_clauses_of_the_inversion_free_comparison(pinned_cache):
    """``x(R) mod n == r`` is checked as ``r·z² ≡ X`` or (``r + n < p``
    and ``(r + n)·z² ≡ X``).  Random signatures reach the second clause
    with probability 2**-128, so build both cases: a valid signature
    whose ``x(R)`` lies in [n, p) (needs the clause), and an invalid one
    with ``r + n ≡ x(R) (mod p)`` but ``r + n >= p`` (needs its guard)."""
    s, z = 0x1234567, 0x89ABCDE
    digest = z.to_bytes(32, "big")

    wrapped = on_curve_with_x(range(N + 1, N + 64))
    r = wrapped[0] - N
    q = key_for(r, s, z, wrapped)
    assert ref_double_mul(z * pow(s, -1, N) % N, r * pow(s, -1, N) % N, q) == wrapped
    assert ref_verify(q, digest, (r, s))
    assert verify_both_ways(q, digest, (r, s)) is True
    assert verify_both_ways(q, digest, (r + N, s)) is False  # out of range
    assert verify_both_ways(q, digest, (r + 1, s)) is False

    small = on_curve_with_x(range(1, 64))
    assert small[0] < 2 * N - P
    r = small[0] + P - N  # r + n = x + p: equal to x mod p, but not below p
    assert r < N and r + N >= P
    q = key_for(r, s, z, small)
    assert ref_double_mul(z * pow(s, -1, N) % N, r * pow(s, -1, N) % N, q) == small
    assert ref_verify(q, digest, (r, s)) is False
    assert verify_both_ways(q, digest, (r, s)) is False
    # The same nonce point does verify under the r it really has.
    assert verify_both_ways(key_for(small[0], s, z, small), digest, (small[0], s)) is True


class CountingRow(list):
    reads = 0

    def __getitem__(self, index):
        CountingRow.reads += 1
        return list.__getitem__(self, index)


def test_operation_counts_of_a_pinned_verify_and_a_sign(pinned_cache, monkeypatch):
    """A verification under a pinned key: at most 33 + 43 table points
    read, each added once inside the loop (``_j_add_affine`` sees only
    the first, onto infinity), no doubling, no inversion mod p — it was
    at most 128 additions and one inversion.  A signature: at most 33 and
    the one inversion that makes ``R`` affine (was 64 and one)."""
    secret = 0xFACADE
    public = ecdsa.derive_public_point(secret)
    ecdsa.pin_public_point(public)
    comb, wnaf = ecdsa._generator_tables()
    monkeypatch.setattr(
        ecdsa, "_generator_tables", lambda: ([CountingRow(row) for row in comb], wnaf)
    )
    pinned_cache[public] = [CountingRow(row) for row in pinned_cache[public]]
    calls = {"add": 0, "double": 0, "inverse mod p": 0, "inverse mod n": 0}

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    def counting_pow(base, exponent, modulus):
        calls["inverse mod p" if modulus == P else "inverse mod n"] += exponent == -1
        return pow(base, exponent, modulus)

    monkeypatch.setattr(ecdsa, "_j_add_affine", counting("add", ecdsa._j_add_affine))
    monkeypatch.setattr(ecdsa, "_j_double", counting("double", ecdsa._j_double))
    monkeypatch.setattr(ecdsa, "pow", counting_pow, raising=False)
    rng = random.Random(76)
    most = {"verify": 0, "sign": 0}
    for _ in range(50):
        digest = rng.randbytes(32)
        CountingRow.reads = 0
        calls.update(dict.fromkeys(calls, 0))
        signature = ecdsa.sign_digest(secret, digest)
        assert calls == {"add": 1, "double": 0, "inverse mod p": 1, "inverse mod n": 1}
        most["sign"] = max(most["sign"], CountingRow.reads)
        CountingRow.reads = 0
        calls.update(dict.fromkeys(calls, 0))
        assert ecdsa.verify_digest(public, digest, signature)
        assert calls == {"add": 1, "double": 0, "inverse mod p": 0, "inverse mod n": 1}
        most["verify"] = max(most["verify"], CountingRow.reads)
    assert 60 <= most["verify"] <= 33 + 43
    assert 25 <= most["sign"] <= 33
