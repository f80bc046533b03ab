"""Polynomial families over n variables and their instantiation.

A monomial pattern (1, j1, ..., js) stands for X_1 X_{j1} ... X_{js}.
Rotation families sum all n cyclic shifts of the pattern monomial (indices
live in the residues 1..n), trapezoid families sum only the translates
that fit without wrapping, and sigma(k) is the k-th elementary symmetric
polynomial.  Expressions combine these with scalar multiples and sums;
`parse` reads their text one ``+``-separated term at a time, each term an
optional scalar, a family name and its arguments.

So a rotation at n is its trapezoid plus its wrapped translates, the seam,
which for n >= 2w - 2 (w the pattern width) is one fixed polynomial in the
first and the last w - 1 variables (`seam`).  The trapezoids and sigma(k)
at n are those at any larger n with the variables past n set to 0.
"""

from itertools import combinations
from operator import attrgetter


class Frozen:
    """Base of the value classes: a subclass's `__init__` checks its fields and
    stores them, in `__slots__` order, with `_set`.  A value is immutable, equal
    to a value of its class with equal fields, and printed as a keyword call
    unless its class keeps its own `__repr__`.  On it: the expressions and
    `InstantiatedFunction`, `galois.FieldSpec` and `FieldElement`, `recurrence.IntPolynomial`
    and `Sequence`, `harness.ConjectureReport`, `numtheory.EigenReport`.  Off it: `CycInt`,
    the tuple of its coordinates (see its docstring), and `transfer.TransferSystem`, whose arrays leave it identity equality."""

    __slots__ = ()

    def __init_subclass__(cls):  # one getter a class: FieldElement ops compare their fields
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda value: (get(value),))
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)  # each slot's own store

    def _set(self, *values):
        for put, value in zip(self._setters, values):
            put(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if self is other:
            return True
        return self._fields(self) == self._fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self), self._fields(self)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)


class MonomialPattern(Frozen):
    __slots__ = ("offsets",)

    def __init__(self, offsets):
        offs = tuple(int(o) for o in offsets)
        if not offs or offs[0] != 1:
            raise ValueError("pattern must start with offset 1")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        self._set(offs)

    @property
    def degree(self):
        return len(self.offsets)

    @property
    def width(self):
        return self.offsets[-1]


class Rotation(Frozen):
    __slots__ = ("pattern",)

    def __init__(self, pattern):
        if pattern.degree < 2:
            raise ValueError("rotation needs a pattern of degree >= 2")
        self._set(pattern)

    def min_n(self):
        return self.pattern.width


class Trapezoid(Frozen):
    __slots__ = ("pattern",)

    def __init__(self, pattern):
        if pattern.degree < 2:
            raise ValueError("trapezoid needs a pattern of degree >= 2")
        self._set(pattern)

    def min_n(self):
        return self.pattern.width


class Sigma(Frozen):
    __slots__ = ("k",)

    def __init__(self, k):
        if k < 1:
            raise ValueError("sigma needs k >= 1")
        self._set(k)

    def min_n(self):
        return self.k


class ScalarMul(Frozen):
    __slots__ = ("scalar_index", "expr")

    def __init__(self, scalar_index, expr):
        self._set(scalar_index, expr)

    def min_n(self):
        return self.expr.min_n()

    def scalar(self, field):
        """The element of field that scalar_index names."""
        if not 0 <= self.scalar_index < field.q:
            raise ValueError(
                "scalar index %d out of range for F_%s" % (self.scalar_index, field.describe())
            )
        return field.from_index(self.scalar_index)


class Sum(Frozen):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self._set(parts)

    def min_n(self):
        return max(part.min_n() for part in self.parts)


def seam(e, field=None):
    """(e', w, W): e with every rotation replaced by its trapezoid, the
    largest rotation width w (0 when no rotation occurs), and the seam W
    over field (None without a field; e' and w need none).

    A rotation of width w_i at n is its trapezoid at n, the translates that
    fit without wrapping, plus its w_i - 1 wrapped translates.  For
    n >= 2w - 2 each wrapped translate is a product of variables of
    u = (x_(n-w+2), ..., x_n) and of a = (x_1, ..., x_(w-1)), which do not
    overlap, so f_n = f'_n + W(u, a) for every n >= max(min_n, 2w - 2) with
    the same polynomial W.  W is returned as a function on F_q^(2w-2),
    a in its variables 1..w-1 and u in w..2w-2: the wrapped translates at
    n = 2w - 2 of the rotations of `parts`.  Each has a variable of u, so
    W(0, a) = 0.  Without a rotation e' = e and W is 0 on F_q^0 (see the
    module docstring).
    """
    trapezoids, w = _unwrapped(e)
    if field is None:
        return trapezoids, w, None
    n, acc = max(2 * w - 2, 0), {}
    for coeff, atom in parts(e, field):
        for mono in _wrapped(atom, n) if isinstance(atom, Rotation) else ():
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
    return trapezoids, w, InstantiatedFunction(field, n, acc)


def _unwrapped(e):
    """(e', w) of `seam`."""
    if isinstance(e, ScalarMul):
        inner, w = _unwrapped(e.expr)
        return ScalarMul(e.scalar_index, inner), w
    if isinstance(e, Sum):
        parts = [_unwrapped(part) for part in e.parts]
        return Sum(tuple(part for part, _w in parts)), max(w for _part, w in parts)
    if isinstance(e, Rotation):
        return Trapezoid(e.pattern), e.pattern.width
    return e, 0


def tau(k):
    """The consecutive trapezoid family T(2,...,k)."""
    return Trapezoid(MonomialPattern(tuple(range(1, k + 1))))


def consecutive_rotation(k):
    return Rotation(MonomialPattern(tuple(range(1, k + 1))))


# ---------------------------------------------------------------------------
# parsing

class ExprSyntaxError(ValueError):
    pass


def parse(source):
    """Parse an expression like ``R(2,3) + e2*T(2,4) + sigma(3) + tau(4)``.

    Spaces and tabs are dropped.  Each term between ``+`` signs is an
    optional scalar literal ``e<index>*``, which names a field element by its
    enumeration index and binds to the atom after it, then a family name
    (``tau``, ``sigma``, ``R`` or ``T``) and its arguments: numbers separated
    by commas, in parentheses.  A number is a run of decimal digits, any that
    `str.isdecimal` and `int` accept.
    """
    text = source.replace(" ", "").replace("\t", "")
    terms = []
    for term in text.split("+"):
        head, bracket, inner = term.partition("(")
        scalar, star, name = head.rpartition("*")
        args = inner[:-1].split(",")
        if not (
            bracket
            and inner.endswith(")")
            and name in ("tau", "sigma", "R", "T")
            and all(map(str.isdecimal, args))
            and (not star or scalar[:1] == "e" and scalar[1:].isdecimal())
        ):
            raise ExprSyntaxError("expected a term, not %r, in %r" % (term, source))
        args = tuple(map(int, args))
        if name in ("tau", "sigma"):
            if len(args) != 1:
                raise ExprSyntaxError("%s takes a single argument in %r" % (name, source))
            atom = tau(args[0]) if name == "tau" else Sigma(args[0])
        else:
            atom = (Rotation if name == "R" else Trapezoid)(MonomialPattern((1,) + args))
        terms.append(ScalarMul(int(scalar[1:]), atom) if star else atom)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def unparse(e):
    if isinstance(e, Rotation):
        return "R(%s)" % ",".join(str(o) for o in e.pattern.offsets[1:])
    if isinstance(e, Trapezoid):
        return "T(%s)" % ",".join(str(o) for o in e.pattern.offsets[1:])
    if isinstance(e, Sigma):
        return "sigma(%d)" % e.k
    if isinstance(e, ScalarMul):
        return "e%d*%s" % (e.scalar_index, unparse(e.expr))
    if isinstance(e, Sum):
        return " + ".join(unparse(part) for part in e.parts)
    raise TypeError("not an expression: %r" % (e,))


# ---------------------------------------------------------------------------
# index sets and shifts

def shift(monomial, k, n):
    """Apply the cyclic index shift i -> i + k (mod n, residues 1..n)."""
    out = set()
    for i in monomial:
        if not 1 <= i <= n:
            raise ValueError("index %d out of range 1..%d" % (i, n))
        out.add((i + k - 1) % n + 1)
    return frozenset(out)


class InstantiatedFunction(Frozen):
    """A concrete polynomial function on F_q^n, stored as monomial terms.

    Terms map index sets to nonzero field coefficients.  Coefficients of
    coinciding monomials are accumulated in the field, so families whose
    shifts collide (small n) can cancel down to fewer terms or to zero.
    """

    __slots__ = ("field", "n", "terms")

    def __init__(self, field, n, terms):
        cleaned = {}
        for mono, coeff in terms.items():
            if not coeff.is_zero():
                cleaned[frozenset(mono)] = coeff
        self._set(field, int(n), cleaned)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: tuple(sorted(kv[0])))

    def __repr__(self):
        body = " + ".join(
            "%s*X%s" % (list(c.coeffs), sorted(m)) for m, c in self.sorted_terms()
        )
        return "InstantiatedFunction(n=%d, %s)" % (self.n, body or "0")


def parts(e, field):
    """Yield (coefficient, atom) for each family atom of e in expression
    order, the coefficient the product of the scalars above it in field,
    each scalar checked when the walk reaches it."""
    todo = [(field.one(), e)]
    while todo:
        coeff, e = todo.pop()
        if isinstance(e, ScalarMul):
            todo.append((coeff * e.scalar(field), e.expr))
        elif isinstance(e, Sum):
            todo.extend((coeff, part) for part in reversed(e.parts))
        else:
            yield coeff, e


def _wrapped(rotation, n):
    """The translates of a rotation at n that wrap past x_n, in shift order."""
    base = frozenset(rotation.pattern.offsets)
    return [shift(base, k, n) for k in range(n - rotation.pattern.width + 1, n)]


def instantiate(e, n, field):
    """Expand an expression into a concrete function on F_q^n.  Each atom of
    `parts` is checked against its family minimum as it comes, so the first
    fault in expression order, a minimum above n or a scalar, is raised."""
    acc = {}
    for coeff, atom in parts(e, field):
        if n < atom.min_n():
            raise ValueError("n=%d below the family minimum %d" % (n, atom.min_n()))
        if isinstance(atom, Sigma):
            monos = map(frozenset, combinations(range(1, n + 1), atom.k))
        elif isinstance(atom, (Trapezoid, Rotation)):
            monos = [frozenset(o + t for o in atom.pattern.offsets) for t in range(n - atom.pattern.width + 1)]
            if isinstance(atom, Rotation):
                monos += _wrapped(atom, n)
        else:
            raise TypeError("not an expression: %r" % (atom,))
        for mono in monos:
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
    return InstantiatedFunction(field, n, acc)


def evaluate(g, point):
    """Evaluate at a point given as a sequence of n field elements."""
    if len(point) != g.n:
        raise ValueError("point has %d coordinates, expected %d" % (len(point), g.n))
    total = g.field.zero()
    for mono, coeff in g.terms.items():
        val = coeff
        for i in mono:
            val = val * point[i - 1]
        total = total + val
    return total
