"""Finite groups as explicit multiplication tables, and the regular representation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Exhaustive associativity checks are cubic in the order; beyond this we spot-check.
_EXHAUSTIVE_ORDER_LIMIT = 24


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on elements 0..order-1 with identity fixed at index 0.

    `mul[a, b]` is the product a*b, `inv[a]` the inverse of a.  Tables are
    validated at construction (Latin square, identity, inverses; associativity
    exhaustively for order <= 24, on random triples beyond).
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    label: str = "G"

    def __post_init__(self):
        mul = np.asarray(self.mul, dtype=np.int64)
        if mul.shape != (self.order, self.order):
            raise GroupError(f"multiplication table must be {self.order}x{self.order}")
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=np.int64))
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self):
        n, mul, inv = self.order, self.mul, self.inv
        if n < 1:
            raise GroupError("group order must be positive")
        rng = np.arange(n)
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("table entries out of range")
        for a in range(n):
            if sorted(mul[a]) != list(range(n)) or sorted(mul[:, a]) != list(range(n)):
                raise GroupError("multiplication table is not a Latin square")
        if not (np.array_equal(mul[0], rng) and np.array_equal(mul[:, 0], rng)):
            raise GroupError("element 0 is not the identity")
        if any(mul[a, inv[a]] != 0 or mul[inv[a], a] != 0 for a in range(n)):
            raise GroupError("inverse table inconsistent with multiplication")
        if n <= _EXHAUSTIVE_ORDER_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rs = np.random.default_rng(0)
            triples = (tuple(rs.integers(0, n, 3)) for _ in range(2000))
        for a, b, c in triples:
            if mul[mul[a, b], c] != mul[a, mul[b, c]]:
                raise GroupError(f"associativity fails at ({a},{b},{c})")

    # -- basic queries ------------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, a: int) -> int:
        """g a g^{-1}."""
        return self.mul[self.mul[g, a], self.inv[g]]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = set()
        classes = []
        for a in range(self.order):
            if a in seen:
                continue
            cls = {self.conj(g, a) for g in range(self.order)}
            seen |= cls
            classes.append(tuple(sorted(cls)))
        return tuple(classes)

    def prod(self, elements) -> int:
        """Left-to-right product of a sequence of element indices."""
        out = 0
        for g in elements:
            out = self.mul[out, g]
        return int(out)

    # -- regular representation --------------------------------------------

    def left_regular_matrix(self, g: int) -> np.ndarray:
        """Permutation matrix of h -> g h on l2(G)."""
        if not 0 <= g < self.order:
            raise GroupError(f"element index {g} out of range")
        mat = np.zeros((self.order, self.order))
        mat[self.mul[g, np.arange(self.order)], np.arange(self.order)] = 1.0
        return mat

    def regular_character(self, g: int) -> float:
        """chi_reg(g) = |G| if g is the identity, 0 otherwise."""
        if not 0 <= g < self.order:
            raise GroupError(f"element index {g} out of range")
        return float(self.order) if g == 0 else 0.0

    def trivial_projector(self) -> tuple[np.ndarray, np.ndarray]:
        """(P1, P0): projector onto the translation-invariant vector, and its complement."""
        p1 = np.full((self.order, self.order), 1.0 / self.order)
        return p1, np.eye(self.order) - p1


def make_cyclic(n: int) -> FiniteGroup:
    """Z_n with addition mod n."""
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    a = np.arange(n)
    return FiniteGroup(
        order=n,
        mul=(a[:, None] + a[None, :]) % n,
        inv=(-a) % n,
        label=f"Z{n}",
    )


def make_symmetric(n: int) -> FiniteGroup:
    """S_n via permutation composition; identity permutation is element 0."""
    if n < 1:
        raise GroupError("symmetric group degree must be >= 1")
    if n > 5:
        raise GroupError("S_n tables with n > 5 are too large for exhaustive checks")
    perms = [tuple(range(n))] + sorted(p for p in itertools.permutations(range(n)) if p != tuple(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mul = np.zeros((order, order), dtype=np.int64)
    inv = np.zeros(order, dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[k]] for k in range(n))]
        ip = [0] * n
        for k in range(n):
            ip[p[k]] = k
        inv[i] = index[tuple(ip)]
    return FiniteGroup(order=order, mul=mul, inv=inv, label=f"S{n}")


def group_from_file(path: str | Path) -> FiniteGroup:
    """Load a group from a plain-text table: first line order, then table rows."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise GroupError("empty group file")
    try:
        order = int(lines[0])
        rows = [[int(tok) for tok in ln.split()] for ln in lines[1 : order + 1]]
    except ValueError as exc:
        raise GroupError(f"cannot parse group file {path}: {exc}") from exc
    if len(rows) != order or any(len(r) != order for r in rows):
        raise GroupError(f"group file {path}: expected {order} rows of {order} entries")
    mul = np.array(rows, dtype=np.int64)
    inv = np.zeros(order, dtype=np.int64)
    for a in range(order):
        hits = np.nonzero(mul[a] == 0)[0]
        if len(hits) != 1:
            raise GroupError("each row must contain the identity exactly once")
        inv[a] = hits[0]
    return FiniteGroup(order=order, mul=mul, inv=inv, label=Path(path).stem)


def group_by_name(name: str) -> FiniteGroup:
    """Resolve 'Z2', 'S3', ... or a path to a group file."""
    name = name.strip()
    if name.upper().startswith("Z") and name[1:].isdigit():
        return make_cyclic(int(name[1:]))
    if name.upper().startswith("S") and name[1:].isdigit():
        return make_symmetric(int(name[1:]))
    path = Path(name)
    if path.exists():
        return group_from_file(path)
    raise GroupError(f"unknown group spec {name!r} (use Zn, Sn, or a table file)")
