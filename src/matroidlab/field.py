"""Exact GF(q) arithmetic through precomputed lookup tables.

Elements of GF(p^k) are the integers 0..q-1 read base p as coefficient
vectors of polynomials over GF(p), reduced modulo a fixed irreducible monic
polynomial.  The modulus is the lexicographically least irreducible monic
polynomial of degree k (least integer encoding), so tables, matrices and
point orderings built on top of them are stable across runs.

Tables are tiny (q is desk-scale) and every operation is a flat-list lookup.
Elimination does not walk them entry by entry: `VectorPacking` packs a
column into one int (base-p digits in bit slots), and `core.LinearMatroid`
reduces whole vectors at once.  The tables serve only to build a packing,
to invert pivots, to build the per-packing tables that rescale a packed
vector to its normal form and, over odd GF(p^k) with k > 1, to take
scalar multiples.

A normal form (a vector scaled to 1 at its lowest nonzero coordinate) has
two routes.  Over GF(q), q > 2, with q^nrows <= NORMAL_TABLE_CAP = 2^13,
the packing keeps one dict from each of its q^nrows - 1 nonzero vectors to
its normal form, built on the first `VectorPacking.normals` call; every
other packing rescales a chunk of the vector at a time.  2^13 is the least
power of two that covers height 4 over GF(9) (PG(3,9), 6,561 vectors);
it bounds a table at 8,191 entries, under a megabyte and 10 ms to
build by the chunk route.  GF(2) needs no rescaling: every nonzero vector
is its own normal form.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .errors import NotPrimePower, SizeLimit

MAX_FIELD_ORDER = 256

# the largest q^nrows whose packing keeps a whole-vector table of normal
# forms (see the module docstring); larger packings rescale by chunks
NORMAL_TABLE_CAP = 1 << 13


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)  # q itself prime


def is_prime_power(q: int) -> bool:
    return factor_prime_power(q) is not None


# -- polynomial helpers over GF(p), coefficients low degree first --------


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        shift = len(a) - 1 - dm
        coef = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * mi) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divides(d, a, p):
    return not _poly_mod(a, d, p)


def _int_to_poly(x, p, k):
    coeffs = []
    for _ in range(k):
        coeffs.append(x % p)
        x //= p
    return coeffs


def _poly_to_int(coeffs, p):
    x = 0
    for c in reversed(coeffs):
        x = x * p + c
    return x


def _least_irreducible(p: int, k: int):
    """Lexicographically least monic irreducible polynomial of degree k."""
    for tail in range(p ** k):
        cand = _int_to_poly(tail, p, k) + [1]  # monic degree k
        if cand[0] == 0:
            continue  # divisible by x
        for d_deg in range(1, k // 2 + 1):
            for d_tail in range(p ** d_deg):
                div = _int_to_poly(d_tail, p, d_deg) + [1]
                if _poly_divides(div, cand, p):
                    break
            else:
                continue
            break
        else:
            return cand
    raise NotPrimePower(f"no irreducible polynomial found for p={p}, k={k}")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Arithmetic tables for GF(q); immutable and freely shareable."""

    q: int
    p: int
    k: int
    modulus: tuple  # coefficients, low degree first, monic
    add_flat: tuple = dc_field(repr=False)  # add_flat[a*q+b]
    mul_flat: tuple = dc_field(repr=False)
    neg: tuple = dc_field(repr=False)
    inv: tuple = dc_field(repr=False)  # inv[0] unused

    def add(self, a, b):
        return self.add_flat[a * self.q + b]

    def mul(self, a, b):
        return self.mul_flat[a * self.q + b]

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv[a]

    def frob_power(self, a, times=1):
        """Apply the Frobenius map x -> x^p `times` times."""
        for _ in range(times):
            b = 1
            for _ in range(self.p):
                b = self.mul(b, a)
            a = b
        return a

    def subfield_elements(self, k0: int) -> frozenset:
        """Elements fixed by the k0-fold Frobenius, i.e. the copy of GF(p^k0)."""
        return frozenset(x for x in range(self.q) if self.frob_power(x, k0) == x)


def _build_tables(p, k, modulus):
    q = p ** k
    if k == 1:
        add = [(a + b) % p for a in range(q) for b in range(q)]
        mul = [(a * b) % p for a in range(q) for b in range(q)]
    else:
        polys = [_int_to_poly(x, p, k) for x in range(q)]
        add = []
        mul = []
        for a in range(q):
            pa = polys[a]
            for b in range(q):
                pb = polys[b]
                add.append(_poly_to_int([(x + y) % p for x, y in zip(pa, pb)], p))
                prod = _poly_mod(_poly_mul(pa, pb, p), modulus, p)
                mul.append(_poly_to_int(prod, p))
    neg = [0] * q
    for a in range(q):
        for b in range(q):
            if add[a * q + b] == 0:
                neg[a] = b
                break
    inv = [0] * q
    for a in range(1, q):
        for b in range(1, q):
            if mul[a * q + b] == 1:
                inv[a] = b
                break
    return tuple(add), tuple(mul), tuple(neg), tuple(inv)


@lru_cache(maxsize=None)
def field_make(q: int) -> FieldSpec:
    """Build GF(q) for a prime power q.

    Raises NotPrimePower for q < 2 or q with two distinct prime divisors,
    SizeLimit beyond MAX_FIELD_ORDER.  Deterministic: the modulus is fixed
    per (p, k), so repeated calls give identical tables.
    """
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    if q > MAX_FIELD_ORDER:
        raise SizeLimit(f"field order {q} exceeds the cap of {MAX_FIELD_ORDER}")
    pk = factor_prime_power(q)
    if pk is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, k = pk
    modulus = tuple(_least_irreducible(p, k)) if k > 1 else (0, 1)
    add, mul, neg, inv = _build_tables(p, k, modulus)
    return FieldSpec(q=q, p=p, k=k, modulus=modulus,
                     add_flat=add, mul_flat=mul, neg=neg, inv=inv)


# -- vectors packed into ints ----------------------------------------------

class VectorPacking:
    """GF(q) vectors of `nrows` coordinates packed into one int.

    Coordinate i holds its k base-p digits in slots of w bits from bit
    i*k*w up, the digit of x^j in slot j, so row 0 is lowest.  Over
    characteristic 2, w = 1 and adding is xor; otherwise a slot has a guard
    bit above any sum of two digits, and adding is one integer add and the
    subtraction of p from each slot whose sum reached p.  The raw slot
    pattern of an element is its own value when p = 2 or k = 1.

    Normal forms: over GF(q), q > 2, with q^nrows at most
    NORMAL_TABLE_CAP, `normals` is a dict of all q^nrows - 1 nonzero
    vectors, built on its first call (one per packing, held as long as the
    packing); otherwise `normals` is None and `chunk_normal` rescales each
    vector a chunk at a time.
    """

    def __init__(self, field: FieldSpec, nrows: int):
        p, k = field.p, field.k
        w = 1 if p == 2 else (p - 1).bit_length() + 1
        self.field, self.p, self.k, self.w = field, p, k, w
        self.nrows = nrows
        self.width = k * w
        self.mask = (1 << k * w) - 1
        self.pattern = [sum(a // p ** j % p << j * w for j in range(k))
                        for a in range(field.q)]
        self.elem = {c: a for a, c in enumerate(self.pattern)}
        self.inv = {c: field.inv[a] for a, c in enumerate(self.pattern) if a}
        if p == 2:
            # x^(k-1) digit of every coordinate, and x^k folded into lower digits
            self.top = sum(1 << s + k - 1 for s in range(0, nrows * k, k))
            self.fold = sum(m << j for j, m in enumerate(field.modulus[:k]))
        else:
            slots = range(0, nrows * k * w, w)
            self.guard = sum(1 << s + w - 1 for s in slots)
            self.bias = sum((1 << w - 1) - p << s for s in slots)
        # `normal` rescales a chunk at a time: whole coordinates, at most 10
        # bits (or one coordinate where a coordinate is wider) and at most
        # the vector's height
        self.chunk_bits = max(1, min(10 // self.width, nrows)) * self.width
        self.chunk_mask = (1 << self.chunk_bits) - 1
        self._scalings = {}
        self._tabled = field.q > 2 and field.q ** nrows <= NORMAL_TABLE_CAP
        self._normals = None  # built by `normals`

    def pack(self, col) -> int:
        width, pattern, v = self.width, self.pattern, 0
        for a in reversed(col):
            v = v << width | pattern[a]
        return v

    def add(self, v: int, u: int) -> int:
        """v + u for odd p: a slot with sum >= p sets its guard bit once
        biased by 2^(w-1) - p, and loses p."""
        s = v + u
        return s - ((s + self.bias & self.guard) >> self.w - 1) * self.p

    def mulx(self, v: int) -> int:
        """x·v over GF(2^k): shift every coordinate up one digit and fold
        its x^k back through the modulus."""
        hi = v & self.top
        return (v ^ hi) << 1 ^ (hi >> self.k - 1) * self.fold

    def scale(self, v: int, b: int) -> int:
        """b·v for a field element b, coordinate by coordinate through the
        field's product table."""
        f, width, mask, i, out = self.field, self.width, self.mask, 0, 0
        row = b * f.q
        while v:
            c = v & mask
            if c:
                out |= self.pattern[f.mul_flat[row + self.elem[c]]] << i
            v >>= width
            i += width
        return out

    def normal(self, v: int) -> int:
        """Nonzero v scaled to 1 at its lowest nonzero coordinate: read from
        the table of `normals` once that is built, else rescaled by chunks
        (`chunk_normal`), so that a caller who wants only a few normal forms
        (a rank call's basis rows) builds no table."""
        table = self._normals
        return table[v] if table else self.chunk_normal(v)

    def normals(self) -> dict | None:
        """A dict from every nonzero vector to its normal form, for loops
        that rescale many keys: over GF(q), q > 2, with q^nrows at most
        NORMAL_TABLE_CAP, the q^nrows - 1 nonzero vectors rescaled by
        `chunk_normal` on the first call; None for any other packing, whose
        callers rescale by `chunk_normal`."""
        if self._normals is None and self._tabled:
            vectors = [0]
            for i in range(0, self.nrows * self.width, self.width):
                vectors = [x | c << i for x in vectors for c in self.pattern]
            self._normals = {v: self.chunk_normal(v) for v in vectors[1:]}
        return self._normals

    def chunk_normal(self, v: int) -> int:
        """The normal form of nonzero v, whose lowest nonzero coordinate
        holds the slot pattern c: unless c = 1, v is mapped a chunk at a
        time through the table of inv(c)·x (`_scaling`)."""
        off = ((v & -v).bit_length() - 1) // self.width * self.width
        c = v >> off & self.mask
        if c == 1:
            return v
        table = self._scalings.get(c) or self._scaling(c)
        step, chunk = self.chunk_bits, self.chunk_mask
        v >>= off
        out = 0
        while v:
            out |= table[v & chunk] << off
            v >>= step
            off += step
        return out

    def _scaling(self, c: int) -> dict:
        """{x: inv(c)·x} over the valid patterns x of one chunk (no guard bit
        set, every slot group an element), built coordinate by coordinate
        from the field's products: at most max(2^10, q) entries, one table
        per leading pattern c, stored only once complete."""
        f, pattern, q = self.field, self.pattern, self.field.q
        row = self.inv[c] * q
        table = {0: 0}
        for i in range(0, self.chunk_bits, self.width):
            table = {x | pattern[a] << i: y | pattern[f.mul_flat[row + a]] << i
                     for x, y in table.items() for a in range(q)}
        self._scalings[c] = table
        return table

    def row(self, u: int) -> tuple:
        """A basis row for a normal form u: (offset of its pivot, -c·u by
        the slot pattern c), so one reduction step adds mults[c] to v, for
        c the pattern of v at that offset."""
        off = ((u & -u).bit_length() - 1) // self.width * self.width
        if self.p == 2:  # -c·u = c·u, xor-combinations of x^j·u
            mults = [0, u]
            for _ in range(self.k - 1):
                u = self.mulx(u)
                mults += [m ^ u for m in mults]
        elif self.k == 1:  # j·u by repeated addition; -c·u = (p - c)·u
            mults = [0, u]
            for _ in range(self.p - 2):
                mults.append(self.add(mults[-1], u))
            mults[1:] = mults[:0:-1]
        else:
            mults = _TableMultiples(self, u)
        return off, mults


class _TableMultiples(dict):
    """-c·u by slot pattern c over odd GF(p^k), k > 1, each taken through the
    field tables on first use."""

    def __init__(self, packing: VectorPacking, u: int):
        super().__init__()
        self.packing, self.u = packing, u

    def __missing__(self, c: int) -> int:
        pk = self.packing
        m = self[c] = pk.scale(self.u, pk.field.neg[pk.elem[c]])
        return m


_PACKINGS = {}


def vector_packing(field: FieldSpec, nrows: int) -> VectorPacking:
    """The packing of height-`nrows` vectors over `field`, cached per
    (q, nrows): keying by the FieldSpec would hash its q^2-entry tables."""
    key = field.q, nrows
    got = _PACKINGS.get(key)
    if got is None:
        got = _PACKINGS[key] = VectorPacking(field, nrows)
    return got
