"""Ground-set subsets as plain Python integers.

A subset of elements 0..n-1 is the int with those bits set.  Python ints are
arbitrary precision, so the same representation covers both the word-sized
fast path (n <= 64) and the wide fallback; ground sets are capped at
MAX_GROUND elements.
"""

from .errors import SizeLimit

MAX_GROUND = 1024


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def spread(x: int, elems) -> int:
    """The mask of elems[i] over the set bits i of x (x indexes into elems)."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out |= 1 << elems[i]
        x >>= 1
        i += 1
    return out


def bits(mask: int):
    """Yield set-bit indices in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


def lowest(mask: int) -> int:
    """Index of the least set bit; mask must be nonzero."""
    return (mask & -mask).bit_length() - 1


def check_ground_size(n: int):
    if n > MAX_GROUND:
        raise SizeLimit(f"ground set of {n} elements exceeds the cap of {MAX_GROUND}")
