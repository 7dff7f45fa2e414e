"""Exact sparse linear algebra over ℚ between indexed bases.

A LinearMap stores columns as {col_index: {row_index: Fraction}}; its
constructor drops zero entries and empty columns, so the builders below
accumulate freely. `dom`/`cod` are dimensions. A space is an
`algebra.Basis` (`.keys`, `.index`, `.dim`, `.element(key)`); `matrix_of`
expands a GradedElement-valued function over a basis.
"""

from fractions import Fraction


class LinearMap:
    __slots__ = ("dom", "cod", "cols")

    def __init__(self, dom: int, cod: int, cols=None):
        self.dom = dom
        self.cod = cod
        self.cols = {}
        if cols:
            for j, col in cols.items():
                clean = {i: c if type(c) is Fraction else Fraction(c) for i, c in col.items() if c}
                if clean:
                    self.cols[j] = clean

    @staticmethod
    def zero(dom: int, cod: int) -> "LinearMap":
        return LinearMap(dom, cod)

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(n, n, {j: {j: Fraction(1)} for j in range(n)})

    def _check_shape(self, other):
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("shape mismatch")

    def add(self, other) -> "LinearMap":
        self._check_shape(other)
        cols = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
            tgt = cols.setdefault(j, {})
            for i, c in col.items():
                tgt[i] = tgt.get(i, 0) + c
        return LinearMap(self.dom, self.cod, cols)

    def sub(self, other) -> "LinearMap":
        return self.add(other.scale(-1))

    def scale(self, c) -> "LinearMap":
        c = Fraction(c)
        if not c:
            return LinearMap.zero(self.dom, self.cod)
        return LinearMap(
            self.dom, self.cod, {j: {i: v * c for i, v in col.items()} for j, col in self.cols.items()}
        )

    def compose(self, other) -> "LinearMap":
        """self ∘ other."""
        if other.cod != self.dom:
            raise ValueError("composition shape mismatch")
        cols = {}
        for j, col in other.cols.items():
            acc = {}
            for i, c in col.items():
                mid = self.cols.get(i)
                if not mid:
                    continue
                for r, v in mid.items():
                    acc[r] = acc.get(r, 0) + v * c
            cols[j] = acc
        return LinearMap(other.dom, self.cod, cols)

    def apply(self, vec: dict) -> dict:
        out = {}
        for j, c in vec.items():
            col = self.cols.get(j)
            if not col or not c:
                continue
            for i, v in col.items():
                out[i] = out.get(i, 0) + v * c
        return {i: c for i, c in out.items() if c}

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.cols == other.cols
        )

    def __hash__(self):
        raise TypeError("LinearMap is not hashable")

    def nilpotency_index(self, bound: int):
        """Least k <= bound with M^k = 0, else None."""
        acc = LinearMap.identity(self.dom)
        for k in range(1, bound + 1):
            acc = self.compose(acc)
            if acc.is_zero():
                return k
        return None

    def entries(self):
        for j, col in sorted(self.cols.items()):
            for i, c in sorted(col.items()):
                yield i, j, c

    def __repr__(self):
        n = sum(len(c) for c in self.cols.values())
        return f"<LinearMap {self.cod}x{self.dom}, {n} entries>"


def matrix_of(fn, dom_space, cod_space=None, *, allow_truncation: bool = False) -> LinearMap:
    """Matrix of x ↦ fn(x) in the given bases; rejects truncation loss by default."""
    cod_space = cod_space or dom_space
    cols = {}
    for j, key in enumerate(dom_space.keys):
        y = fn(dom_space.element(key))
        if y.truncated and not allow_truncation:
            raise ValueError(f"truncation loss at basis key {key}")
        col = {}
        for k, c in y.terms.items():
            i = cod_space.index.get(k)
            if i is None:
                raise ValueError(f"image key {k} outside codomain basis")
            col[i] = c
        cols[j] = col
    return LinearMap(dom_space.dim, cod_space.dim, cols)
