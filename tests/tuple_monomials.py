"""The tuple monomial product, kept as the reference for the packed words.

A monomial is a pair ``(ext, exps)`` here: a strictly increasing tuple of
exterior positions and a full-length exponent tuple.  :func:`mono_mul`
merges the exterior tuples, counting transpositions for the Koszul sign,
adds the exponents, and checks each cap and the truncation one by one,
reading them from the generator set's fields rather than its word.
"""

import operator


def merge_exterior(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge strictly increasing index tuples, counting transpositions.

    Returns ``(parity, merged)`` with parity in {0, 1}, or ``None`` when an
    index repeats (odd generators square to zero).  The parity is the number
    of transpositions, mod 2, needed to sort the concatenation ``a + b``.
    """
    if not a:
        return 0, b
    if not b:
        return 0, a
    merged = []
    swaps = 0
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            merged.append(x)
            i += 1
        else:
            # y jumps over the remaining entries of a
            merged.append(y)
            swaps += na - i
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return swaps & 1, tuple(merged)


def mono_mul(gens, a, b):
    """Product of two tuple monomials over ``gens``: ``(sign, mono)`` or
    ``None`` if zero."""
    merged = merge_exterior(a[0], b[0])
    if merged is None:
        return None
    parity, ext = merged
    exps = tuple(map(operator.add, a[1], b[1]))
    if any(cap is not None and e > cap for e, (_, _, cap) in zip(exps, gens.poly)):
        return None
    degree = sum(deg * e for e, (_, deg, _) in zip(exps, gens.poly))
    if gens.truncation and degree > gens.truncation:
        return None
    return (-1 if parity else 1), (ext, exps)
