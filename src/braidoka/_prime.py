"""Primality of the degree in Theorem 1 (`families.thm1_verdict`) and of
the permutation degree in `perms.abelian_transitive_generator`, in a module
of its own so that a call that decides no primality compiles none of it."""

from .errors import ResourceLimit

# the first 13 primes; as Miller-Rabin bases they decide primality for
# every n below _MR_BOUND (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Division by the bases, then a strong probable-prime test to each of
    them: deterministic below _MR_BOUND, at a cost that follows the bit
    length of n.  At or above the bound ResourceLimit is raised."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise ResourceLimit(f"primality is decided only below {_MR_BOUND}, got a "
                            f"{n.bit_length()}-bit number")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
