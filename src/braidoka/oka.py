"""Gromov-Oka decision procedures for monodromy homomorphisms.

Two decision problems are implemented at the level of monodromy data:

* homomorphisms from the genus-1 one-hole surface group (free of rank 2)
  into B_3, screened through the five-element test set E0; zero entropy on
  all of E0 forces the image into one of three abelian model subgroups,
  and the image commutator must vanish;

* homomorphisms from a genus-g m-hole surface group into the rank-2 free
  group (the fundamental group of the twice punctured plane), screened
  through the simple-closed-curve test set E'; the verdict is either a
  reducible (cyclic peripheral) image, a sphere covering pattern
  (holomorphic or orientation-reversing), or a failure witness.
"""

from __future__ import annotations

import functools
import itertools
import re

from . import _theta, _word
from ._theta import (
    _E0_BLOCKS,
    _E0_MIRRORED_BLOCKS,
    e0_screen_matrices,
    log_spectral_radius,
    mat_mul,
)
from ._value import Value, check_int, int_field, read_int
from .errors import (
    DegenerateSignature,
    InternalInconsistency,
    ResourceLimit,
    TheoremContradiction,
    WrongSignature,
    WrongTarget,
)
from .words import (
    Block,
    FreeWord,
    _core,
    _inverse,
    _merge_blocks,
    _peripheral,
    is_conjugate_into_peripheral,
    primitive_root,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal


def __getattr__(name: str):
    # oka never calls theta, and only perfbench/test_perfbench.py reads
    # `oka.theta` (as `sl2z.theta`): it is looked up in sl2z on each read,
    # so an oka call does not compile sl2z, and a tracer's wrapper of
    # sl2z.theta is not kept here after the tracer is removed
    if name == "theta":
        from . import sl2z
        return sl2z.theta
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SurfaceSignature(Value):
    """Genus g with m boundary holes; the fundamental group is free of rank
    2g + m - 1 (for (g, m) != (0, 1))."""

    genus: int
    holes: int

    def __init__(self, genus: int, holes: int) -> None:
        check_int(genus, "genus")
        check_int(holes, "holes")
        if genus < 0 or holes < 1:
            raise ValueError(f"bad signature ({genus}, {holes})")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "holes", holes)

    @property
    def free_rank(self) -> int:
        return 2 * self.genus + self.holes - 1


TARGET_B3 = "B3"
TARGET_F2 = "F2"


class SurfaceHom(Value):
    """A homomorphism out of a surface group, given on free generators.

    The images are checked against the target here, once: B3 images are
    3-strand braid words, F2 images free words in a1 and a2."""

    signature: SurfaceSignature
    target: Literal["B3", "F2"]
    images: dict

    def __init__(self, signature: SurfaceSignature, target: Literal["B3", "F2"], images: dict) -> None:
        if target not in (TARGET_B3, TARGET_F2):
            raise ValueError(f"unknown target {target!r}")
        images = dict(images)  # so a later change to the argument changes no record
        x = signature.free_rank
        # x distinct keys, each an integer in 1..x, are exactly 1..x; the
        # counts compare in constant memory however large x is.  True
        # equals and hashes as 1, so a bool key is refused by name
        for k in images:
            check_int(k, "an image key")
        if len(images) != x or not all(1 <= k <= x for k in images):
            raise ValueError(f"need images for generators 1..{x}")
        for v in images.values():
            if target == TARGET_B3 and not isinstance(v, _word.BraidWord):
                raise ValueError("B3 target needs BraidWord images")
            if target == TARGET_F2:
                if not isinstance(v, FreeWord):
                    raise ValueError("F2 target needs FreeWord images")
                extra = {g for g, _ in v.blocks} - {1, 2}
                if extra:
                    raise ValueError(f"F2 images use generators 1 and 2 only, got a{min(extra)}")
        if target == TARGET_B3:
            _theta._b3("SurfaceHom", *images.values())
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def _block_image(self, gen: int, exp: int) -> tuple[Block, ...]:
        """The reduced image blocks of the block gen^exp: image(gen)^|exp|
        in the closed form of `FreeWord.__pow__`, inverted for a negative
        exponent.  An image whose core is one block costs the same for
        every exponent; a longer core still costs its output size."""
        image = self.images[gen]
        part = image.blocks if abs(exp) == 1 else (image ** abs(exp)).blocks
        return part if exp > 0 else _inverse(part)

    @staticmethod
    def from_json(data) -> "SurfaceHom":
        """The homomorphism of {"genus": g, "holes": m, "target": "B3" or
        "F2", "images": {"e1": word, ...}} with each word as text and one
        key e<k> per generator k.  Malformed data, or two keys that name
        one generator, raise ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError("a homomorphism must be a JSON object")
        for field in ("genus", "holes", "target", "images"):
            if field not in data:
                raise ValueError(f'a homomorphism needs "{field}"')
        sig = SurfaceSignature(int_field(data["genus"], '"genus"'), int_field(data["holes"], '"holes"'))
        target = data["target"]
        if target not in (TARGET_B3, TARGET_F2):  # before it picks the word parser
            raise ValueError(f"unknown target {target!r}")
        if not isinstance(data["images"], dict):
            raise ValueError('"images" must be an object')
        images, keys = {}, {}
        for key, text in data["images"].items():
            if not isinstance(text, str):
                raise ValueError(f'images["{key}"] must be a word as text, got {text!r}')
            if not (isinstance(key, str) and re.fullmatch(r"e[0-9]+", key)):
                raise ValueError(f'images key "{key}" must be e<k> for the generator k')
            idx = read_int(key[1:], "an images key")
            if idx in keys:
                raise ValueError(f'images keys "{keys[idx]}" and "{key}" name one generator')
            keys[idx] = key
            images[idx] = (_word.BraidWord.parse(text, 3) if target == TARGET_B3
                           else FreeWord.parse(text))
        return SurfaceHom(sig, target, images)


# ---------------------------------------------------------------------------
# the E0 screen for B_3-valued homomorphisms on the one-holed torus
# ---------------------------------------------------------------------------


_E0, _E0_MIRRORED = (tuple(map(FreeWord, words)) for words in (_E0_BLOCKS, _E0_MIRRORED_BLOCKS))


def e0_set(mirrored: bool = False) -> list[FreeWord]:
    """The five-element test set {e1, e2, e2 e1^-1, e2 e1^-2, [e1, e2]}.

    The mirrored variant swaps the roles of the generators in the two
    middle elements ({e1 e2^-1, e1 e2^-2}); both sets appear in the source
    material and the flag lets callers compare verdicts.
    """
    return list(_E0_MIRRORED if mirrored else _E0)


PERIODIC_SIGMA12 = "periodicSigma12"
PERIODIC_DELTA = "periodicDelta"
REDUCIBLE_SIGMA1_DELTA2 = "reducibleSigma1Delta2"


class Oka3Classified(Value):
    type_: str

    def __init__(self, type_: str) -> None:
        object.__setattr__(self, "type_", type_)

    def as_dict(self) -> dict:
        return {"verdict": "classified", "type": self.type_}


class Oka3Violation(Value):
    witness: FreeWord
    trace: int

    def __init__(self, witness: FreeWord, trace: int) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "trace", trace)

    @property
    def entropy(self) -> float:
        return log_spectral_radius(self.trace)

    def as_dict(self) -> dict:
        return {
            "verdict": "violation",
            "witness": self.witness.text(prefix="e"),
            "trace": self.trace,
            "entropy": self.entropy,
        }


Oka3Result = Oka3Classified | Oka3Violation


def oka3_decide(hom: SurfaceHom, mirrored: bool = False) -> Oka3Result:
    """Screen a torus-with-hole monodromy in B_3 through the E0 set.

    Each E0 image must have entropy zero, decided exactly on the integer
    trace of its theta image.  The first failure is returned as a
    violation.  When all five pass, the generator images commute, and the
    abelian image is classified by its invariants: a 3-cycle permutation
    image marks the sigma1*sigma2 model, a trace-zero theta image the
    Delta model, anything else the sigma1/Delta^2 model.  A signature other
    than (1, 1) raises WrongSignature and an F2-valued map WrongTarget, as
    `go_surface_decide` does for a B3-valued one; the images of a B3-valued
    map have 3 strands, which `SurfaceHom` checks where the map is built.

    A pair is classified exactly when e1, e2 and [e1, e2] pass, in either
    variant.  Proof: the images commute once e1, e2 and [e1, e2] pass, by
    fact (E) of `three.zero_entropy_commutator_scan`, so the
    TheoremContradiction below cannot fire; it stays as a check of that
    invariant.  Commuting m1, m2 of entropy zero (|trace| <= 2) generate a
    group of entropy zero: if either is +-I, every product is +-(a power
    of the other); the centralizer of an elliptic element is finite (it
    fixes the elliptic point, whose stabiliser is cyclic of order 4 or 6),
    so every product has finite order; the centralizer of a parabolic one
    is +-(a conjugate of) <T> (it fixes the cusp), whose elements all
    have trace +-2.  So e2 e1^-1, e2 e1^-2 and the mirrored e1 e2^-1,
    e1 e2^-2 pass too.  Conversely a classified pair passed all five.  The
    two variants therefore differ only in their witness, and
    `oka3_decide_both` reports "agree": false only when both verdicts are
    violations: indices 1, 2 and 5 name one word in both, index 3 names
    inverse words of one trace, and only index 4 can fail in one variant
    alone.

    Everything is decided on m1 = theta(b1) and m2 = theta(b2).  Theta is
    onto SL(2,Z) with kernel <Delta^4>, which is central of exponent sum
    12, so b1 b2 = b2 b1 exactly when m1 m2 = m2 m1 (both products have the
    same exponent sum).  Theta mod 2 induces the isomorphism
    S_3 = SL(2,F_2) on the quotient by the pure braids, under which the
    3-cycles are the elements of odd trace.
    """
    if (hom.signature.genus, hom.signature.holes) != (1, 1):
        raise WrongSignature("oka3_decide needs signature (1, 1)")
    if hom.target != TARGET_B3:
        raise WrongTarget("oka3_decide needs a B3-valued homomorphism")
    m1 = _theta.theta_abcd(hom.images[1].runs)
    m2 = _theta.theta_abcd(hom.images[2].runs)
    index, trace = e0_screen_matrices(m1, m2, mirrored)
    if index:
        witness = (_E0_MIRRORED if mirrored else _E0)[index - 1]
        return Oka3Violation(witness, trace)

    if mat_mul(m1, m2) != mat_mul(m2, m1):
        raise TheoremContradiction(
            "all E0 entropies vanish but the generator images do not commute"
        )
    t1, t2 = m1[0] + m1[3], m2[0] + m2[3]
    if t1 % 2 or t2 % 2:
        return Oka3Classified(PERIODIC_SIGMA12)
    if t1 == 0 or t2 == 0:
        return Oka3Classified(PERIODIC_DELTA)
    return Oka3Classified(REDUCIBLE_SIGMA1_DELTA2)


def oka3_decide_both(hom: SurfaceHom) -> dict:
    """Run both E0 variants and report whether the verdicts agree.  They
    classify the same pairs (see `oka3_decide`), so "agree": false means
    two violations with different witnesses."""
    std = oka3_decide(hom, mirrored=False)
    mir = oka3_decide(hom, mirrored=True)
    return {
        "standard": std.as_dict(),
        "mirrored": mir.as_dict(),
        "agree": std.as_dict() == mir.as_dict(),
    }


# ---------------------------------------------------------------------------
# the E' test set for a genus-g m-hole surface
# ---------------------------------------------------------------------------

TAG_GENERATOR = "handle-generator"
TAG_COMMUTATOR = "commutator"
TAG_PAIR = "pair-product"
TAG_HANDLE_MIX = "handle-mix"
TAG_HOLE_PATTERN = "hole-pattern"
TAG_TRIPLE = "triple-product"


class EPrimeSet(Value):
    signature: SurfaceSignature
    elements: tuple[tuple[FreeWord, str], ...]

    def __init__(self, signature: SurfaceSignature, elements: tuple[tuple[FreeWord, str], ...]) -> None:
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "elements", elements)

    @property
    def count(self) -> int:
        return len(self.elements)

    @property
    def bound(self) -> int:
        return self.signature.free_rank ** 3

    def words(self) -> list[FreeWord]:
        return [w for w, _ in self.elements]

    def as_dict(self) -> dict:
        return {
            "genus": self.signature.genus,
            "holes": self.signature.holes,
            "count": self.count,
            "bound": self.bound,
            "elements": [
                {"word": w.text(prefix="e"), "tag": tag} for w, tag in self.elements
            ],
        }


def hole_product_inverse(sig: SurfaceSignature) -> FreeWord:
    """For genus 0: the virtual generator e_m = (e_1 ... e_{m-1})^-1
    surrounding the last hole."""
    return FreeWord(tuple((j, -1) for j in range(sig.holes - 1, 0, -1)))


# largest free rank eprime_generate accepts, measured in its docstring
EPRIME_MAXRANK = 32


def _free_rank(sig: SurfaceSignature) -> int:
    """The free rank of a surface group, which must be nontrivial."""
    if sig.free_rank == 0:
        raise DegenerateSignature("(0, 1) has trivial fundamental group")
    return sig.free_rank


@functools.lru_cache(maxsize=16)
def eprime_generate(sig: SurfaceSignature) -> EPrimeSet:
    """The simple-closed-curve test set E' for a genus-g m-hole surface.

    Families, in order: the free generators (handles first, then holes,
    plus the virtual hole generator for genus 0), handle commutators, pair
    products of non-handle pairs, the four handle-mix words per handle and
    other generator, the hole-pattern words through the first handle, and
    for genus zero the pair and triple products of distinct generators.
    Ordered pairs and triples are taken in ascending generator order.
    Each element is written down as a block tuple and reduced once.

    The elements are pairwise distinct, so none is dropped.  Abelianize
    a_k -> e_k in Z^x.  In positive genus a generator maps to one unit
    vector, a pair to two, a handle-mix word a^s b^t e to s e_a + t e_b +
    e_e with (s, t) in {(2, 1), (3, 1), (1, 2), (1, 3)}, and a hole-pattern
    word h_i a_1 h_i b_1 h_k to 2 e_i + e_1 + e_2 + e_k, whose support has
    four entries.  These vectors are nonzero and pairwise distinct; the g
    handle commutators map to 0 and are distinct reduced words.  In genus
    0 with m >= 3, e_m -> -(e_1 + ... + e_(m-1)), so the product over a
    set S of base elements maps to the indicator of S when m is not in S
    and to minus the indicator of the complement of S when it is; two
    different S of one to three elements never meet, as the first kind is
    nonzero and nonnegative and the second nonpositive.  Counting the
    families, with x = 2g + m - 1, E' has
    3g + (m - 1) + C(x, 2) - g + 4g(x - 2) + C(m - 1, 2) elements for
    g >= 1, 1 for (0, 2), and m + C(m, 2) + C(m, 3) for genus 0 with
    m >= 3.

    E' depends on the signature alone and its records are immutable, so
    the 16 most recently used sets are cached: equal signatures get the
    same EPrimeSet.

    Raises ResourceLimit above free rank EPRIME_MAXRANK = 32, before
    generating anything.  The largest set at the cap is genus 0 with 33
    holes (6,017 elements; the triple products grow as m^3), which takes
    about 0.02 s and 4.5 MB of allocations, 3.4 MB of them held by the
    result (best of five, pure Python 3.11, 2-core VM); genus 16 with one
    hole has 2,448 elements.  A full cache therefore holds at most about
    16 x 3.4 MB.  Rank 64 took 0.15 s and 33 MB (45,825 elements).
    """
    x = _free_rank(sig)
    if x > EPRIME_MAXRANK:
        raise ResourceLimit(f"E' is limited to free rank <= EPRIME_MAXRANK = {EPRIME_MAXRANK}, got {x}")
    g, m = sig.genus, sig.holes
    items: list[tuple[tuple[Block, ...], str]] = []

    if g > 0:
        for j in range(1, g + 1):
            a, b = 2 * j - 1, 2 * j
            items.append((((a, 1),), TAG_GENERATOR))
            items.append((((b, 1),), TAG_GENERATOR))
            items.append((((a, 1), (b, 1), (a, -1), (b, -1)), TAG_COMMUTATOR))
        for ell in range(1, m):
            items.append((((2 * g + ell, 1),), TAG_GENERATOR))
        handle_pairs = {(2 * j - 1, 2 * j) for j in range(1, g + 1)}
        for i, j in itertools.combinations(range(1, x + 1), 2):
            if (i, j) in handle_pairs:
                continue
            items.append((((i, 1), (j, 1)), TAG_PAIR))
        for j in range(1, g + 1):
            a, b = 2 * j - 1, 2 * j
            for e in range(1, x + 1):
                if e in (a, b):
                    continue
                # a^2 b e, a^3 b e, a b^2 e, a b^3 e
                for pa, pb in ((2, 1), (3, 1), (1, 2), (1, 3)):
                    items.append((((a, pa), (b, pb), (e, 1)), TAG_HANDLE_MIX))
        if m > 2:
            holes = range(2 * g + 1, 2 * g + m)
            for i, j in itertools.combinations(holes, 2):
                items.append((((i, 1), (1, 1), (i, 1), (2, 1), (j, 1)), TAG_HOLE_PATTERN))
    else:
        if m == 2:
            items.append((((1, 1),), TAG_GENERATOR))
        else:
            base = [((j, 1),) for j in range(1, m)] + [hole_product_inverse(sig).blocks]
            for w in base:
                items.append((w, TAG_GENERATOR))
            for i, j in itertools.combinations(range(m), 2):
                items.append((base[i] + base[j], TAG_PAIR))
            for i, j, k in itertools.combinations(range(m), 3):
                items.append((base[i] + base[j] + base[k], TAG_TRIPLE))

    out = EPrimeSet(sig, tuple((FreeWord(blocks), tag) for blocks, tag in items))
    if out.count > out.bound:
        raise InternalInconsistency(
            f"E' for {sig} has {out.count} elements, above the bound {out.bound}"
        )
    return out


# ---------------------------------------------------------------------------
# classification of F2-valued monodromies
# ---------------------------------------------------------------------------


class GOReducible(Value):
    """Image generated by a single conjugated peripheral power."""

    peripheral: str | None
    root: FreeWord

    def __init__(self, peripheral: str | None, root: FreeWord) -> None:
        object.__setattr__(self, "peripheral", peripheral)
        object.__setattr__(self, "root", root)

    def as_dict(self) -> dict:
        return {
            "verdict": "reducible",
            "goProperty": True,
            "peripheral": self.peripheral,
            "root": self.root.text(),
        }


class _SphereVerdict(Value):
    """The record shape of the two sphere verdicts: the triple of hole
    indices of (t1, t2, t3), with the verdict and its Gromov-Oka property
    set by each subclass."""

    triple: tuple[int, int, int]

    def __init__(self, triple: tuple[int, int, int]) -> None:
        object.__setattr__(self, "triple", triple)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "goProperty": self.go_property,
            "triple": list(self.triple),
        }


class GOSphereHolomorphic(_SphereVerdict):
    verdict = "sphereHolomorphic"
    go_property = True


class NotGOSphereAntiholomorphic(_SphereVerdict):
    verdict = "sphereAntiholomorphic"
    go_property = False


class NotGO(Value):
    """The first E' element whose image is not conjugate into a peripheral
    power."""

    reason = "test element image is not a peripheral power"

    witness: FreeWord

    def __init__(self, witness: FreeWord) -> None:
        object.__setattr__(self, "witness", witness)

    def as_dict(self) -> dict:
        return {
            "verdict": "notGO",
            "goProperty": False,
            "witness": self.witness.text(prefix="e"),
            "reason": self.reason,
        }


GoSurfaceResult = GOReducible | GOSphereHolomorphic | NotGOSphereAntiholomorphic | NotGO


def go_surface_decide(hom: SurfaceHom) -> GoSurfaceResult:
    """Decide the Gromov-Oka property of an F2-valued surface monodromy.

    Step 1 looks for a cyclic image: all nontrivial generator images powers
    of one root r that is itself conjugate to a peripheral p.  Such an
    image is reducible, and this is decided before E' because it is exact:
    every element of the image is some r^k, which is conjugate to p^k, so
    no E' element can fail.  In a free group two nontrivial elements are
    powers of one root exactly when they commute, so step 1 compares
    products of blocks and takes one primitive root.  Step 2 requires every
    E' image to be conjugate into a peripheral power; the first E' element
    whose image is not is the witness.  Each E' image is the concatenation
    of the image blocks of its blocks, each (generator, exponent) computed
    once per call, reduced once and matched on blocks.  Step 3 (genus zero
    only) reads the sphere pattern off the boundary monodromies; in
    positive genus no non-cyclic image passes step 2 (G4-G6 below).  Above
    free rank EPRIME_MAXRANK only step 1 can answer: step 2 raises
    ResourceLimit.

    In genus zero E' opens with its m generators e_1 .. e_(m-1) and the
    virtual e_m = (e_1 ... e_(m-1))^-1, whose images are the boundary
    monodromies u_1 .. u_m with u_1 ... u_m = 1 (for m = 2, E' is e_1
    alone).  Every other element is a product of two or three distinct
    generators in ascending order, so its image is the ordered product of
    the nontrivial u_i it names.  With at most three of them nontrivial,
    u_l1 u_l2 u_l3 = 1 for l1 < l2 < l3, and every such product is 1, some
    u_li, u_l1 u_l2 = u_l3^-1, u_l2 u_l3 = u_l1^-1 or
    u_l1 u_l3 = u_l1 u_l2^-1 u_l1^-1, a conjugate of u_l2^-1 (with two,
    u_l2 = u_l1^-1 and every product is u_l1^(+-1) or 1).  Each is
    conjugate into a peripheral power when the u_i are, so once the
    generators pass, the pairs and triples are skipped: the verdict and the
    witness are unchanged.  u_m is read as the inverse of the product
    u_1 ... u_(m-1) of the generator images.  The generator pass keeps each
    boundary image with its `_core` split for step 3.

    Step 3 rests on three lemmas.  A peripheral p is a1, a2 or (a1 a2)^-1,
    each primitive; its class is the set of conjugates of its nonzero
    powers, and a boundary monodromy is live when it is nontrivial.  The
    sphere patterns are t1 = a_g^s, t2 = a_(3-g)^s, t3 = (t1 t2)^-1 for
    g in {1, 2} and s = +-1, up to simultaneous conjugation and rotation,
    holomorphic for s = 1.

    (G1) After step 1 and a clean generator screen, at least three u_i
    are live.  One live u_j contradicts u_1 ... u_m = 1.  With two,
    u_b = u_a^-1, so the generator images lie in {1, u_a^(+-1)} and
    commute; u_a passed, so u_a ~ p^k, its primitive root is conjugate to
    p^(+-1) (p is primitive), and step 1 has returned.  Likewise whenever
    all live u_i commute.

    (G2) Let x, y not commute, with x, y and xy each conjugate to a
    nontrivial peripheral power, and z = (xy)^-1.  Then x, y, z lie in
    three different classes with one exponent s = +-1, and some rotation
    of (x, y, z) is a simultaneous conjugate of (t1, t2, t3).  Proof: map
    a1, a2 to (1, 0), (0, 1) in Z^2; (a1 a2)^-1 goes to (-1, -1), any two
    of the three images are independent, and they sum to 0.  As xyz = 1,
    either all three lie in one class with k_x + k_y + k_z = 0, or in three
    classes with k_x = k_y = k_z = k.  One class: the automorphism
    a1 -> a2, a2 -> (a1 a2)^-1 permutes the classes cyclically, so say a1;
    conjugate to x = a1^i and write y = w a1^j w^-1 with w = a1^h w' and
    w' reduced, neither starting nor ending with a1^(+-1).  If w' != 1,
    a1^-h xy a1^h = a1^i w' a1^j w'^-1 is cyclically reduced with two a1
    blocks, not a power of a1; so w' = 1 and x, y commute.  Three classes
    with |k| >= 2: x, y, z are X^k, Y^k, Z^k with X, Y, Z conjugates of
    peripherals, and X^k Y^k = Z^-k makes X and Y commute
    (Lyndon-Schutzenberger, Michigan Math. J. 9, 1962), hence x and y.  So
    k = s = +-1.  Rotate the
    (a1 a2)^-1 class to z, conjugate to x = p^s (p = a_g) and write
    y = w p'^s w^-1 (p' = a_(3-g)) with w = p^h w' as above.  If w' != 1,
    p^-h xy p^h = p^s w' p'^s w'^-1 is cyclically reduced of length above
    2, but xy ~ (a1 a2)^s has length 2; so conjugating by p^-h gives
    (t1, t2).

    (G3) With four or more live u_i, some E' pair or triple fails.
    Suppose all pass.  Commuting is an equivalence on nontrivial elements,
    and not all live u_i commute (G1), so take live x, y in different
    commuting classes.  The E' pair of their indices has image xy (index
    order), so G2 applies: x ~ p^s, y ~ p'^s.  Every live u misses the
    commuting class of x or of y, so G2 on that pair gives u ~ p''^s with
    the same s.  Two commuting live elements are powers of one root and
    each is primitive with sign s, so they are equal; live elements that
    do not commute lie in different peripheral classes (G2).  Their product
    in index order is 1, so abelianizing gives n elements in each of the
    three classes, n >= 2 as 3n >= 4.  Take x = u_a = u_b and y = u_c in
    another class: the E' triple of a, b, c has image xxy, xyx or yxx, each
    conjugate to x^2 y, and G2 on x^2 ~ p^2s and y gives exponent 2s = +-1,
    a contradiction.

    So past the E' loop genus zero has exactly three live monodromies
    (G1, G3), which do not commute and pass the screen: G2 reads the
    pattern off them.  t3 is the one whose core is not a single letter,
    so it comes third, and the core letter of the first is t1 = (g, s).
    No rotation of another pattern matches, and the verdict is s = 1.

    In positive genus three more lemmas show that every image passing E'
    is cyclic, so step 1 has answered.  Handle j has generators a_j, b_j
    with images x_j, y_j; the image of any other generator e is e'.

    (G4) The commutator of handle j passes exactly when x_j and y_j
    commute.  Abelianizing, a1 -> (1, 0), a2 -> (0, 1), maps a nonzero
    peripheral power to a nonzero vector and a commutator to 0, and
    `_peripheral` reads 1 as power 0.  So x_j = r^k and y_j = r^l for one
    primitive root r.

    (G5) If handle j is nontrivial, every e' commutes with r.  x_j or y_j
    is a nonzero power of r that passed, so r is conjugate to p^(+-1) (p is
    primitive) and r^n is a nontrivial peripheral power for n != 0.  The
    E' pairs of a_j or b_j with e and the four handle-mix words a_j^2 b_j e,
    a_j^3 b_j e, a_j b_j^2 e, a_j b_j^3 e have images r^n e', up to
    order, for n in {k, l, 2k + l, 3k + l, k + 2l, k + 3l}.  If e' did not
    commute with r, neither would r^n for n != 0, and G2 on each nonzero
    n would force |n| = 1.  No (k, l) != (0, 0) allows that: k = +-1
    forces l = -k (else |2k + l| >= 2), and then |3k + l| = 2; k = 0
    gives |k + 2l| = 2.  So every image is a power of r, a cyclic image.

    (G6) If every handle is trivial, only the hole images can be
    nontrivial, and not all of them commute (else the image is cyclic).
    Two that do not, u of hole h_i and v of h_k with i < k, have the E'
    pair image uv, so u ~ p^s, v ~ p'^s with s = +-1 (G2).  The
    hole-pattern word h_i a_1 h_i b_1 h_k has image u^2 v, and G2 on
    (u^2, v) gives |2s| = 1, a contradiction.  With m <= 2 there is at most
    one hole generator, and the image is cyclic.
    """
    if hom.target != TARGET_F2:
        raise WrongTarget("go_surface_decide needs an F2-valued homomorphism")
    sig = hom.signature
    g, m = sig.genus, sig.holes

    gen_images = [hom.images[j] for j in range(1, _free_rank(sig) + 1)]
    nontrivial = [w for w in gen_images if not w.is_identity()]
    if not nontrivial:
        return GOReducible(None, FreeWord.identity())
    w0 = nontrivial[0].blocks
    if all(_merge_blocks(w0 + w.blocks) == _merge_blocks(w.blocks + w0) for w in nontrivial[1:]):
        r0 = primitive_root(nontrivial[0])[0]
        hit = is_conjugate_into_peripheral(r0)
        if hit is not None:
            return GOReducible(hit.peripheral, r0)

    elements = eprime_generate(sig).elements
    if g == 0:
        boundary = [w.blocks for w in gen_images]
        boundary.append(_inverse(_merge_blocks(b for u in boundary for b in u)))
        cores = [_core(u) for u in boundary]
        for (e, _tag), (_, core) in zip(elements, cores):
            if _peripheral(core) is None:
                return NotGO(e)
        live = [j for j, u in enumerate(boundary) if u]
        elements = elements[m:] if len(live) > 3 else ()

    parts: dict[Block, tuple[Block, ...]] = {}
    for e, _tag in elements:
        image: list[Block] = []
        for block in e.blocks:
            part = parts.get(block)
            if part is None:
                part = parts[block] = hom._block_image(*block)
            image += part
        if _peripheral(_merge_blocks(image)) is None:
            return NotGO(e)

    if g > 0 or len(live) != 3:  # positive genus: G4-G6; genus 0: G1, G3
        raise TheoremContradiction("a non-cyclic image passed E' outside three live holes")
    if _merge_blocks(b for j in live for b in boundary[j]):
        raise InternalInconsistency("boundary monodromies must multiply to 1")
    # (G2): the live monodromy whose core is not a single letter is t3 and
    # comes third; the core letter (g, s) of the first is t1
    single = [len(cores[j][1]) == 1 for j in live]
    rot = (single.index(False) + 1) % 3
    ((_, s),) = cores[live[rot]][1]
    idx = tuple(j + 1 for j in live[rot:] + live[:rot])
    return GOSphereHolomorphic(idx) if s == 1 else NotGOSphereAntiholomorphic(idx)
