"""Exact truncated polynomial classes on projective space.

A homology class on P^(N-1) is stored as an integer polynomial in the
hyperplane class H, truncated modulo H^N.  For the pushforward class of a
subvariety the lowest nonzero power of H is its codimension, the coefficient
there its degree, and the top coefficient its Euler characteristic.

The module also implements the degree-d duality transform

    f(H)  ->  f(-1-H) - f(-1) * ((1+H)^(d+1) - H^(d+1))

which is an involution on polynomials without constant term and is linear.
Applied to signed class polynomials (sign (-1)^dim) it interchanges the
Chern-Mather classes of a projective variety and of its dual variety.
`involute_all` transforms a list of classes in one pass of Horner's rule
for the shift f(-1-H), on integers that hold the classes' coefficients
side by side; `involute` is the one-class case, checked pointwise.
`_unpack` reads such an integer of signed digits back, here and in the
localization of `detvar`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from operator import add, index, neg


class ClassPoly:
    """Element of Z[H]/(H^N), coefficients ascending by power of H.

    The modulus N is the length of the coefficient tuple; classes with the
    same modulus live on the same ambient P^(N-1) and may be combined.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int], modulus: int | None = None):
        # index, not int: a float coefficient raises TypeError, never truncates
        cs = list(map(index, coeffs))
        if modulus is not None:
            if modulus < 1:
                raise ValueError("modulus must be a positive integer")
            if len(cs) > modulus:
                if any(c != 0 for c in cs[modulus:]):
                    raise ValueError(
                        f"coefficients of degree >= {modulus} must be zero"
                    )
                cs = cs[:modulus]
            cs.extend([0] * (modulus - len(cs)))
        if not cs:
            raise ValueError("a class polynomial needs at least one coefficient")
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, modulus: int) -> "ClassPoly":
        return cls([0], modulus)

    # -- basic queries -------------------------------------------------

    @property
    def modulus(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Highest power with nonzero coefficient; -1 for the zero class."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return -1

    @property
    def codim(self) -> int:
        """Lowest power with a nonzero coefficient."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        raise ValueError("the zero class has no codimension")

    @property
    def dim(self) -> int:
        """Dimension of the supported class: N - 1 - codim."""
        return self.modulus - 1 - self.codim

    # -- arithmetic ----------------------------------------------------

    def _check_modulus(self, other: "ClassPoly") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "ClassPoly") -> "ClassPoly":
        if not isinstance(other, ClassPoly):
            return NotImplemented
        self._check_modulus(other)
        return ClassPoly([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "ClassPoly") -> "ClassPoly":
        if not isinstance(other, ClassPoly):
            return NotImplemented
        self._check_modulus(other)
        return ClassPoly([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ClassPoly":
        return ClassPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return ClassPoly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- evaluation ----------------------------------------------------

    def eval(self, t: int) -> int:
        """Exact evaluation at an integer; the stored coefficients define
        the polynomial, truncation is ignored."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # -- rendering -----------------------------------------------------

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def text(self) -> str:
        """Human form, ascending powers: "1 + 2*H + 3*H^2"."""
        names = ["", "H"] + [f"H^{k}" for k in range(2, self.modulus)]
        return render_combination(zip(self.coeffs, names))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"ClassPoly({list(self.coeffs)!r})"


def render_combination(terms: Iterable[tuple[int, str]]) -> str:
    """Human form of a signed integer combination of named classes, given as
    (coefficient, name) pairs in print order; the name "" is the unit.

    Zero terms are dropped and a coefficient of +-1 is not written; after
    the first term the sign becomes a separate "+ " or "- ", and an empty
    combination prints as "0": "2 - H + 3*H^2".
    """
    parts = []
    for c, name in terms:
        if c == 0:
            continue
        mag = abs(c)
        term = f"{mag}*{name}" if name and mag != 1 else name or str(mag)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


def one_plus_h_power(m: int, modulus: int) -> ClassPoly:
    """(1+H)^m truncated mod H^modulus, as one binomial row:
    C(m, k+1) = C(m, k) * (m-k) / (k+1), exact at every step."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    row = [1]
    for k in range(min(m, modulus - 1)):
        row.append(row[k] * (m - k) // (k + 1))
    return ClassPoly(row, modulus)


def chern_B(n: int, modulus: int) -> ClassPoly:
    """(1+H)^(n+1) - H^(n+1) mod H^modulus: the pushforward class of P^n,
    the binomial row C(n+1, 0..n) padded to the modulus."""
    if modulus < n + 1:
        raise ValueError("modulus too small to carry the class of P^n")
    return ClassPoly(one_plus_h_power(n + 1, n + 1).coeffs, modulus)


def csm_linear_space(k: int, modulus: int) -> ClassPoly:
    """Pushforward class of a linear P^k inside P^(modulus-1):
    H^(N-1-k) * (1+H)^(k+1), the row of P^k starting at H^(N-1-k)."""
    if not 0 <= k <= modulus - 1:
        raise ValueError(f"no P^{k} inside P^{modulus - 1}")
    return ClassPoly((0,) * (modulus - 1 - k) + chern_B(k, k + 1).coeffs)


def involute(f: ClassPoly, d: int) -> ClassPoly:
    """The duality transform f(-1-H) - f(-1) * ((1+H)^(d+1) - H^(d+1)) of
    one class: `involute_all([f], d)[0]`, checked against that formula at
    H = 1, 2, -2 and -3.  Both sides are exact polynomials of degree at most
    d + 1, so a wrong coefficient shows unless the error vanishes at all
    four points; a mismatch raises ArithmeticError."""
    result = involute_all([f], d)[0]
    v = f.eval(-1)
    for t in (1, 2, -2, -3):
        if result.eval(t) != f.eval(-1 - t) - v * ((1 + t) ** (d + 1) - t ** (d + 1)):
            raise ArithmeticError(
                f"the duality transform of degree {d} disagrees with its "
                f"defining formula at H = {t}"
            )
    return result


def involute_all(fs: Sequence[ClassPoly], d: int) -> list[ClassPoly]:
    """The duality transform of every class in `fs`, in one Horner pass.

    Computed exactly on the stored coefficients.  Inputs may have degree up
    to d+1 (degree exactly d+1 is needed for the sign rule on H*B_d); each
    exact result must fit its class's modulus, anything that would truncate
    is an error.  The classes are checked in order, and so are their
    results.

    With b_i = (-1)^i a_i, f(-1-H) = sum_i b_i (1+H)^i, so Horner's rule
    needs one addition per coefficient: out <- out*(1+H) + b_i, top first.
    Coefficient i of every class is packed into one integer, class c in
    the signed W-bit digit at bit W*c, and the pass runs on those.  Every
    step is linear over Z, so packed coefficient k of the result is
    sum_c g_k(c) 2^(W c), with g(c) the shift of class c, exactly, whatever
    the digits carry into each other on the way.  Only the final digits
    must fit: with A the largest |a_i| and D the largest degree,

        |g_k| <= sum_(i>=k) |a_i| C(i, k) <= A C(D+1, k+1) < 2^(bits(A) + D + 1),

    which is at most 2^(W-1) for W = 8 * ceil((bits(A) + D + 2) / 8), so
    `_unpack` reads the digits back.  Packing runs its steps backwards, the
    |b_i| <= A fitting as well.
    """
    if d < 1:
        raise ValueError("the transform needs d >= 1")
    degrees = []
    for f in fs:
        if f.modulus < d + 1:
            raise ValueError(
                f"modulus {f.modulus} cannot carry a degree-{d} representative"
            )
        deg = f.degree
        if deg > d + 1:
            raise ValueError(f"degree {deg} exceeds the transform degree {d}")
        degrees.append(deg)
    if not fs:
        return []

    m, top = len(fs), max(max(degrees), 0)
    scratch = max(max(f.modulus for f in fs), d + 2)
    cols = []
    for f in fs:
        col = list(f.coeffs[: top + 1])
        col[1::2] = map(neg, col[1::2])
        cols.append(col + [0] * (top + 1 - len(col)))
    biggest = max(max(map(abs, col)) for col in cols)
    size = (biggest.bit_length() + top + 2 + 7) // 8  # bytes per digit
    row = m * size  # bytes per packed coefficient
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * m, "little")
    # pack, `_unpack` backwards: the two's complement fields of b_i, flipped
    # at the top bit, are the biased digits of the packed coefficient
    fields = chain.from_iterable(zip(*cols))  # coefficient 0 of every class first
    blob = b"".join([b.to_bytes(size, "little", signed=True) for b in fields])
    packed = [
        (int.from_bytes(blob[i : i + row], "little") ^ bias) - bias
        for i in range(0, len(blob), row)
    ]
    # before step k out has degree below k, so only out[:k+1] changes; the
    # slice assignment reads the whole map before it writes
    out = [0] * (top + 1)
    for k, b in enumerate(reversed(packed)):
        out[1 : k + 1] = map(add, out[1 : k + 1], out)
        out[0] += b
    digits = _unpack(out, size, m)

    results, b_d = [], None
    for c, f in enumerate(fs):
        g = digits[c::m] + [0] * (scratch - top - 1)
        # g(0) = f(-1); subtract f(-1) * B_d, whose H^(d+1) terms cancel
        v = g[0]
        if v != 0:
            if b_d is None:
                b_d = chern_B(d, scratch).coeffs
            g = [x - v * b for x, b in zip(g, b_d)]
        results.append(ClassPoly(g, f.modulus))
    return results


def _unpack(packed: list[int], size: int, span: int) -> list[int]:
    """The digits d_0, ..., d_(span-1) of each p = sum_j d_j 2^(W j) in
    `packed`, lowest first, for W = 8 size and -2^(W-1) <= d_j < 2^(W-1).
    Each d_j + 2^(W-1) lies in [0, 2^W), so adding that bias to every digit
    leaves no carry or borrow between them, whatever the d_j carried into
    each other in p: the W-bit fields of p + bias are the biased digits, and
    flipping the top bit of each gives the two's complement of its digit."""
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * span, "little")
    blob = b"".join([((p + bias) ^ bias).to_bytes(span * size, "little") for p in packed])
    fields = range(0, len(blob), size)
    return [int.from_bytes(blob[i : i + size], "little", signed=True) for i in fields]


def div_1p2H(f: ClassPoly) -> ClassPoly:
    """Truncated power-series division by (1+2H); exact over the integers."""
    out = [0] * f.modulus
    prev = 0
    for k, c in enumerate(f.coeffs):
        prev = c - 2 * prev
        out[k] = prev
    return ClassPoly(out)
