"""Scalar multiples and orders under an ``ecdiv.GroupLaw``, for the tests.

The product needs only addition and negation; these derived operations
check published point relations such as 2S = P0 and ord(P) = 6."""

from ellhyp.ecdiv import CurveError


def mul(lw, n: int, p):
    """n * p under the law, by double-and-add from the origin."""
    if n < 0:
        return mul(lw, -n, lw.neg(p))
    r = lw.base
    q = p
    while n:
        if n & 1:
            r = lw.add(r, q)
        q = lw.add(q, q)
        n >>= 1
    return r


def order(lw, p, bound: int = 48) -> int:
    """Least n <= bound with n * p = base, or raise."""
    q = p
    for n in range(1, bound + 1):
        if q == lw.base:
            return n
        q = lw.add(q, p)
    raise CurveError(f"order of {p} exceeds bound {bound}")
