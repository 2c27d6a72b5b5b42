"""Exact truncated polynomial classes on projective space.

A homology class on P^(N-1) is stored as an integer polynomial in the
hyperplane class H, truncated modulo H^N.  For the pushforward class of a
subvariety the lowest nonzero power of H is its codimension, the coefficient
there its degree, and the top coefficient its Euler characteristic.

The module also implements the degree-d duality transform

    f(H)  ->  f(-1-H) - f(-1) * ((1+H)^(d+1) - H^(d+1))

which is an involution on polynomials without constant term and is linear.
Applied to signed class polynomials (sign (-1)^dim) it interchanges the
Chern-Mather classes of a projective variety and of its dual variety.  The
shift f(-1-H) is computed by Horner's rule, one linear factor at a time.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import index


class ClassPoly:
    """Element of Z[H]/(H^N), coefficients ascending by power of H.

    The modulus N is the length of the coefficient tuple; classes with the
    same modulus live on the same ambient P^(N-1) and may be combined.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int], modulus: int | None = None):
        # index, not int: a float coefficient raises TypeError, never truncates
        cs = [index(c) for c in coeffs]
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

    @classmethod
    def monomial(cls, power: int, modulus: int, coeff: int = 1) -> "ClassPoly":
        """coeff * H^power, truncated (zero if power >= modulus)."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        cs = [0] * modulus
        if power < modulus:
            cs[power] = coeff
        return cls(cs, modulus)

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
        if isinstance(other, ClassPoly):
            self._check_modulus(other)
            n = self.modulus
            out = [0] * n
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] += a * b
            return ClassPoly(out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- evaluation and duality ----------------------------------------

    def eval(self, t: int) -> int:
        """Exact evaluation at an integer; the stored coefficients define
        the polynomial, truncation is ignored."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def signed(self) -> "ClassPoly":
        """(-1)^dim times the class, dimension read off the lowest term."""
        if self.is_zero():
            raise ValueError("the zero class has no dimension to sign by")
        return self if self.dim % 2 == 0 else -self

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
    """(1+H)^(n+1) - H^(n+1) mod H^modulus: the pushforward class of P^n."""
    if modulus < n + 1:
        raise ValueError("modulus too small to carry the class of P^n")
    f = one_plus_h_power(n + 1, modulus)
    return f - ClassPoly.monomial(n + 1, modulus)


def csm_linear_space(k: int, modulus: int) -> ClassPoly:
    """Pushforward class of a linear P^k inside P^(modulus-1):
    H^(N-1-k) * (1+H)^(k+1)."""
    if not 0 <= k <= modulus - 1:
        raise ValueError(f"no P^{k} inside P^{modulus - 1}")
    return ClassPoly.monomial(modulus - 1 - k, modulus) * one_plus_h_power(
        k + 1, modulus
    )


def involute(f: ClassPoly, d: int) -> ClassPoly:
    """The duality transform f(-1-H) - f(-1) * ((1+H)^(d+1) - H^(d+1)).

    Computed exactly on the stored coefficients, the shift f(-1-H) by
    Horner's rule.  Inputs may have degree up to d+1 (degree exactly d+1 is
    needed for the sign rule on H*B_d); the exact result must fit the
    modulus, anything that would truncate is an error.
    """
    if d < 1:
        raise ValueError("the transform needs d >= 1")
    if f.modulus < d + 1:
        raise ValueError(
            f"modulus {f.modulus} cannot carry a degree-{d} representative"
        )
    deg = f.degree
    if deg > d + 1:
        raise ValueError(f"degree {deg} exceeds the transform degree {d}")

    scratch = max(f.modulus, d + 2)
    # f(-1-H) by Horner's rule, top coefficient first: out <- out*(-1-H) + a;
    # before step i out has degree below i, so only out[:i+1] changes
    out = [0] * scratch
    for i, a in enumerate(reversed(f.coeffs[: deg + 1])):
        out[: i + 1] = [a - out[0]] + [-x - y for x, y in zip(out[1 : i + 1], out)]
    # out(0) = f(-1); subtract f(-1) * B_d, whose H^(d+1) terms cancel
    c = out[0]
    if c != 0:
        out = [x - c * b for x, b in zip(out, chern_B(d, scratch).coeffs)]
    if any(out[k] != 0 for k in range(f.modulus, scratch)):
        raise ValueError(
            f"transform result of degree > {f.modulus - 1} does not fit the modulus"
        )
    return ClassPoly(out[: f.modulus])


def div_1p2H(f: ClassPoly) -> ClassPoly:
    """Truncated power-series division by (1+2H); exact over the integers."""
    out = [0] * f.modulus
    prev = 0
    for k, c in enumerate(f.coeffs):
        prev = c - 2 * prev
        out[k] = prev
    return ClassPoly(out)
