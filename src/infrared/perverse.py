"""Linear-algebra models of perverse sheaves on the plane.

Two equivalent pictures are implemented, both with exact rational matrices:

* ``TransportData`` (the localized model): vanishing-cycle spaces Phi_i with
  rectilinear transport matrices m[i][j] : Phi_i -> Phi_j for all pairs,
  subject to Id - m[i][i] invertible.

* ``Quiver`` (the full model): a central space Psi with maps
  a_i : Phi_i -> Psi and b_i : Psi -> Phi_i, subject to Id - b_i a_i
  invertible (equivalently Id - a_i b_i, by the Jacobson identity).

Each model owns its inverse local monodromies, kept from its constructor's
invertibility check: T_i^{-1} = (Id - m_ii)^{-1} on transport data and
T_{i,Phi}^{-1} = (Id - b_i a_i)^{-1} on a quiver.  They are one quantity,
T_{i,Phi}(q) = T_i(mu q), so every map between and within the models
carries them over and inverts nothing; every other layer reads them from
their owner.

``mu`` collapses a quiver to transport data via m_ij = b_j a_i, and
``gmv_embed`` is its canonical section with Psi = direct sum of the Phi_j.
Braid generators act on both models, each move a slot swap followed by rank
updates (`MatQ.plus_product`): the quiver-side action twists one arm by
T_{i,Psi} = Id - a_i b_i, whose inverse Id + a_i T_{i,Phi}^{-1} b_i
(Jacobson) is never formed, and the transport-side action, its image under
mu, updates one block row and one block column of the swapped data.

``opposite`` reverses the order of the slots and transposes every map, on
both models: slot s of the result is slot N-1-s, m'_st = (m_{N-1-t,N-1-s})^T
and the arms are (a'_s, b'_s) = (b_{N-1-s}^T, a_{N-1-s}^T).  It is an
involution that commutes with mu, and it carries each generator tau_k to
tau_{N-k}^{-1} (Gaiotto, Moore and Witten, arXiv:1506.04087), so one
wrapper decodes a signed generator for both models and runs each inverse
as the forward move on the opposite data: tau_k^{-1} = opp . tau_{N-k} . opp.

Everything here is index-based: slot i means the i-th marked point in the
configuration ordering (0-based).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput, NotInvertible, NotSpherical, ShapeMismatch
from .linalg import MatQ

Q = Fraction


def jacobson(u: MatQ, v: MatQ) -> tuple[MatQ, MatQ]:
    """Both sides of (1-uv)^{-1} = 1 + u (1-vu)^{-1} v; they agree exactly."""
    n, m = u.rows, u.cols
    if v.rows != m or v.cols != n:
        raise ShapeMismatch("jacobson needs u: m->n, v: n->m")
    lhs = (MatQ.identity(n) - u @ v).inverse()
    rhs = MatQ.identity(n) + u @ (MatQ.identity(m) - v @ u).inverse() @ v
    return lhs, rhs


def _dim(d, name: str) -> int:
    """A space dimension: a nonnegative int, bool excluded."""
    if type(d) is not int or d < 0:
        raise InvalidInput(f"{name} must be a nonnegative integer, got {d!r}")
    return d


def _shaped(blk: MatQ, cols: int) -> MatQ:
    """A matrix read from JSON, `cols` wide: `MatQ.to_json` writes a matrix
    with no rows as [] whatever its width."""
    return blk if blk.rows else MatQ.zeros(0, cols)


def _check_block(dims, i: int, j: int, blk: MatQ) -> None:
    if (blk.rows, blk.cols) != (dims[j], dims[i]):
        raise ShapeMismatch(f"m[{i}][{j}] must map dim {dims[i]} to dim {dims[j]}")


def _monodromy_inverse(name: str, blk: MatQ) -> MatQ:
    """(Id - blk)^{-1} for a square blk; raises NotInvertible naming blk."""
    try:
        return (MatQ.identity(blk.rows) - blk).inverse()
    except NotInvertible:
        raise NotInvertible(f"Id - {name} is singular") from None


class TransportData:
    """Dimension vector plus the full grid of rectilinear transports; owns
    T_i^{-1} = (Id - m_ii)^{-1}, kept from the constructor's invertibility
    check and carried over by `replace`, `permuted` and `opposite`."""

    __slots__ = ("dims", "m", "_t_inv")

    def __init__(self, dims: Sequence[int], m: Sequence[Sequence[MatQ]]):
        self.dims = tuple(_dim(d, "dims entry") for d in dims)
        self.m = tuple(tuple(row) for row in m)
        n = len(self.dims)
        if len(self.m) != n or any(len(row) != n for row in self.m):
            raise ShapeMismatch("transport grid must be N x N")
        for i, j in itertools.product(range(n), repeat=2):
            _check_block(self.dims, i, j, self.m[i][j])
        self._t_inv = tuple(_monodromy_inverse(f"m[{i}][{i}]", self.m[i][i]) for i in range(n))

    @classmethod
    def _checked(cls, dims, m, t_inv) -> "TransportData":
        """Assemble from parts whose shapes and inverses are already known."""
        out = object.__new__(cls)
        out.dims, out.m, out._t_inv = dims, m, t_inv
        return out

    @property
    def n(self) -> int:
        return len(self.dims)

    def local_monodromy_inverse(self, i: int) -> MatQ:
        """T_i^{-1} = (Id - m_ii)^{-1}, computed when m_ii was set."""
        return self._t_inv[i]

    def replace(self, updates: dict[tuple[int, int], MatQ]) -> "TransportData":
        """Copy with the given blocks swapped in; only the rows holding them
        are copied, only those blocks are checked, and only a changed
        diagonal block is inverted again."""
        grid = list(self.m)
        t_inv = self._t_inv
        for (i, j), blk in updates.items():
            _check_block(self.dims, i, j, blk)
            grid[i] = grid[i][:j] + (blk,) + grid[i][j + 1:]
            if i == j:
                t_inv = t_inv[:i] + (_monodromy_inverse(f"m[{i}][{i}]", blk),) + t_inv[i + 1:]
        return TransportData._checked(self.dims, tuple(grid), t_inv)

    def permuted(self, perm: Sequence[int]) -> "TransportData":
        """Relabel slots so that new slot s is old slot perm[s]."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidInput(f"{list(perm)} is not a permutation of the slots")
        return TransportData._checked(
            tuple(self.dims[p] for p in perm),
            tuple(tuple(self.m[pi][pj] for pj in perm) for pi in perm),
            tuple(self._t_inv[p] for p in perm),
        )

    def opposite(self) -> "TransportData":
        """Slots reversed, every map transposed: m'_st = (m_{N-1-t,N-1-s})^T,
        and the kept T_s^{-1} are those of slot N-1-s, transposed."""
        grid = tuple([tuple([b.T for b in col[::-1]]) for col in list(zip(*self.m))[::-1]])
        t_inv = tuple([t.T for t in self._t_inv[::-1]])
        return TransportData._checked(self.dims[::-1], grid, t_inv)

    def __eq__(self, other):
        return (
            isinstance(other, TransportData)
            and self.dims == other.dims
            and self.m == other.m
        )

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "m": [[blk.to_json() for blk in mrow] for mrow in self.m],
        }

    @staticmethod
    def from_json(data: dict) -> "TransportData":
        dims = [_dim(d, "dims entry") for d in data["dims"]]
        grid = [[MatQ(blk) for blk in row] for row in data["m"]]
        # the blocks out of slot i are dims[i] wide; rows past the last slot
        # are left for the constructor to reject
        for row, d in zip(grid, dims):
            row[:] = [_shaped(blk, d) for blk in row]
        return TransportData(dims, grid)


class Quiver:
    """Central space Psi with arms a_i: Phi_i -> Psi, b_i: Psi -> Phi_i; owns
    T_{i,Phi}^{-1} = (Id - b_i a_i)^{-1} as TransportData owns T_i^{-1}."""

    __slots__ = ("dims", "d_psi", "a", "b", "_t_inv")

    def __init__(self, dims, d_psi: int, a: Sequence[MatQ], b: Sequence[MatQ]):
        self.dims = tuple(_dim(d, "dims entry") for d in dims)
        self.d_psi = _dim(d_psi, "dPsi")
        self.a = tuple(a)
        self.b = tuple(b)
        n = len(self.dims)
        if len(self.a) != n or len(self.b) != n:
            raise ShapeMismatch("need one (a_i, b_i) pair per vertex")
        for i in range(n):
            if (self.a[i].rows, self.a[i].cols) != (d_psi, self.dims[i]):
                raise ShapeMismatch(f"a[{i}] must map dim {self.dims[i]} to Psi")
            if (self.b[i].rows, self.b[i].cols) != (self.dims[i], d_psi):
                raise ShapeMismatch(f"b[{i}] must map Psi to dim {self.dims[i]}")
        self._t_inv = tuple(_monodromy_inverse(f"b[{i}] a[{i}]", self.b[i] @ self.a[i])
                            for i in range(n))

    @classmethod
    def _checked(cls, dims, d_psi, a, b, t_inv) -> "Quiver":
        """Assemble from arms whose shapes are known to fit and whose
        (Id - b_i a_i)^{-1} are known."""
        out = object.__new__(cls)
        out.dims, out.d_psi, out.a, out.b, out._t_inv = dims, d_psi, a, b, t_inv
        return out

    @property
    def n(self) -> int:
        return len(self.dims)

    def t_psi(self, i: int) -> MatQ:
        """T_{i,Psi} = Id - a_i b_i on Psi."""
        return MatQ.identity(self.d_psi) - self.a[i] @ self.b[i]

    def local_monodromy_inverse(self, i: int) -> MatQ:
        """T_{i,Phi}^{-1} = (Id - b_i a_i)^{-1}, computed when b_i, a_i were set."""
        return self._t_inv[i]

    def opposite(self) -> "Quiver":
        """Slots reversed, arm s = (b_{N-1-s}^T, a_{N-1-s}^T): its Id - b a and
        its kept inverse are those of slot N-1-s, transposed."""
        a, b, t_inv = (tuple([x.T for x in xs[::-1]]) for xs in (self.b, self.a, self._t_inv))
        return Quiver._checked(self.dims[::-1], self.d_psi, a, b, t_inv)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.dims == other.dims
            and self.d_psi == other.d_psi
            and self.a == other.a
            and self.b == other.b
        )

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "dPsi": self.d_psi,
            "a": [x.to_json() for x in self.a],
            "b": [x.to_json() for x in self.b],
        }

    @staticmethod
    def from_json(data: dict) -> "Quiver":
        dims = [_dim(d, "dims entry") for d in data["dims"]]
        d_psi = _dim(data["dPsi"], "dPsi")
        a = [MatQ(x) for x in data["a"]]
        # a_i is dims[i] wide; arms past the last slot are left for the
        # constructor to reject
        a[:len(dims)] = [_shaped(x, d) for x, d in zip(a, dims)]
        return Quiver(dims, d_psi, a, [_shaped(MatQ(x), d_psi) for x in data["b"]])


def mu(q: Quiver) -> TransportData:
    """Collapse to the localized model: m_ij = b_j a_i, keeping T_i^{-1} = T_{i,Phi}^{-1}."""
    grid = tuple([tuple([q.b[j] @ q.a[i] for j in range(q.n)]) for i in range(q.n)])
    return TransportData._checked(q.dims, grid, q._t_inv)


def gmv_embed(m: TransportData) -> Quiver:
    """Canonical section of mu: Psi = direct sum of the Phi_j, a_i stacks the
    blocks m_ij, b_i is the projection onto slot i (rows of Id_Psi).  Then
    b_i a_i = m_ii, so the result keeps the T_i^{-1} of m."""
    n, d_psi = m.n, sum(m.dims)
    a = tuple([MatQ.from_blocks([[m.m[i][j]] for j in range(n)]) for i in range(n)])
    rows, offs = MatQ.identity(d_psi).num, list(itertools.accumulate(m.dims, initial=0))
    b = tuple([MatQ._wrap(rows[lo:hi], 1, d_psi) for lo, hi in zip(offs, offs[1:])])
    return Quiver._checked(m.dims, d_psi, a, b, m._t_inv)


# ---------------------------------------------------------------------------
# duality


def dual_pair(a: MatQ, b: MatQ) -> tuple[MatQ, MatQ]:
    """(Phi, Psi)-diagram of the Verdier dual at one singular point:
    a' = b^t (1 - a^t b^t)^{-1},  b' = -a^t."""
    at, bt = a.T, b.T
    inner = (MatQ.identity(at.rows) - at @ bt).inverse()
    return bt @ inner, -at


def double_dual_check(a: MatQ, b: MatQ) -> bool:
    """Dualizing twice reproduces (a, b) up to the isomorphism with
    e_Psi = Id and e_Phi = -(1-ba)^{-1}.

    With e_Psi = Id and e_Phi^{-1} = -(1-ba), the intertwining squares
    a'' = e_Psi a e_Phi^{-1} and b'' = e_Phi b e_Psi^{-1} are the closed
    forms a'' = -a (1-ba) and b'' = -(1-ba)^{-1} b, tested exactly.
    """
    a1, b1 = dual_pair(a, b)
    a2, b2 = dual_pair(a1, b1)
    t_phi = MatQ.identity(b.rows) - b @ a
    return a2 == -(a @ t_phi) and b2 == -(t_phi.inverse() @ b)


# ---------------------------------------------------------------------------
# bilinear forms, spherical maps, Calabi-Yau conditions


def serre_operator(B: MatQ) -> MatQ:
    """S_B = B^{-1} B^t, so that B(v, v') = B(v', S_B v)."""
    return B.inverse() @ B.T


def right_adjoint(f: MatQ, b_src: MatQ, b_tgt: MatQ) -> MatQ:
    """f* = B_src^{-1} f^t B_tgt for f: src -> tgt."""
    return b_src.inverse() @ f.T @ b_tgt


def left_adjoint(f: MatQ, b_src: MatQ, b_tgt: MatQ) -> MatQ:
    """*f = (B_src^t)^{-1} f^t B_tgt^t, the right adjoint for the transposed
    forms."""
    return right_adjoint(f, b_src.T, b_tgt.T)


def is_isometry(t: MatQ, B: MatQ) -> bool:
    return t.T @ B @ t == B


@dataclass(frozen=True)
class SphericalReport:
    s1: bool
    s2: bool
    t_psi_invertible: bool
    t_phi_isometry: bool
    t_psi_isometry: bool
    identity_c: bool
    identity_d: bool

    @property
    def spherical(self) -> bool:
        return self.s1 and self.s2

    @property
    def package_holds(self) -> bool:
        return (
            self.t_psi_invertible
            and self.t_phi_isometry
            and self.t_psi_isometry
            and self.identity_c
            and self.identity_d
        )


def spherical_report(a: MatQ, b_phi: MatQ, b_psi: MatQ) -> SphericalReport:
    """Decide the two spherical axioms and the derived package:

    (S1) T_Phi = 1 - (a*) a invertible,
    (S2) a* + (*a) - (*a) a a* = 0,
    and then: T_Psi = 1 - a (a*) invertible, both twists isometries,
    (c) *a = -T_Phi^{-1} (a*), (d) (*a) a a* = (a*) a (*a).
    """
    ra = right_adjoint(a, b_phi, b_psi)
    la = left_adjoint(a, b_phi, b_psi)
    t_phi = MatQ.identity(a.cols) - ra @ a
    t_psi = MatQ.identity(a.rows) - a @ ra
    try:
        t_phi_inv = t_phi.inverse()
        s1 = True
    except NotInvertible:
        t_phi_inv = None
        s1 = False
    s2 = (ra + la - la @ a @ ra).is_zero()
    try:
        t_psi.inverse()
        t_psi_inv_ok = True
    except NotInvertible:
        t_psi_inv_ok = False
    identity_c = t_phi_inv is not None and la == -(t_phi_inv @ ra)
    identity_d = la @ a @ ra == ra @ a @ la
    return SphericalReport(
        s1,
        s2,
        t_psi_inv_ok,
        is_isometry(t_phi, b_phi),
        is_isometry(t_psi, b_psi),
        identity_c,
        identity_d,
    )


def cy_check(a: MatQ, b_phi: MatQ, b_psi: MatQ, parity: str) -> bool:
    """Calabi-Yau symmetry of a spherical map.

    parity "even": B_Psi symmetric and T_Phi = -S_{B_Phi};
    parity "odd":  B_Psi antisymmetric and T_Phi = +S_{B_Phi}.
    """
    if parity not in ("even", "odd"):
        raise InvalidInput("parity must be 'even' or 'odd'")
    rep = spherical_report(a, b_phi, b_psi)
    if not rep.spherical:
        raise NotSpherical("cy_check needs a spherical map")
    ra = right_adjoint(a, b_phi, b_psi)
    t_phi = MatQ.identity(a.cols) - ra @ a
    s = serre_operator(b_phi)
    if parity == "even":
        return b_psi == b_psi.T and t_phi == -s
    return b_psi == -(b_psi.T) and t_phi == s


# ---------------------------------------------------------------------------
# braid actions


def _generator(x, g: int, forward):
    """tau_k (g = +k) or tau_k^{-1} (g = -k), 1 <= k <= N-1, on either model,
    given forward(x, i) = tau_{i+1} x: the inverse runs the forward move on
    the opposite data, tau_k^{-1} = opp . tau_{N-k} . opp."""
    n = x.n
    if g == 0 or abs(g) > n - 1:
        raise InvalidInput(f"braid generator {g} out of range for N={n}")
    if g > 0:
        return forward(x, g - 1)
    return forward(x.opposite(), n - 1 + g).opposite()


def _twist(q: Quiver, i: int) -> Quiver:
    dims, a, b, t_inv = list(q.dims), list(q.a), list(q.b), list(q._t_inv)
    dims[i], dims[i + 1] = dims[i + 1], dims[i]
    a[i], a[i + 1] = a[i + 1].plus_product(a[i], b[i] @ a[i + 1], -1), a[i]
    b[i], b[i + 1] = b[i + 1].plus_product(b[i + 1] @ q.a[i] @ t_inv[i], b[i]), b[i]
    t_inv[i], t_inv[i + 1] = t_inv[i + 1], t_inv[i]
    return Quiver._checked(tuple(dims), q.d_psi, tuple(a), tuple(b), tuple(t_inv))


def braid_act_quiver(q: Quiver, g: int) -> Quiver:
    """Twist generator tau_k (g=+k) or its inverse (g=-k) on the quiver:
    with i = k-1 the 0-based left slot, tau_k swaps slots i, i+1, replacing
    the new slot-i arm by (T_{i,Psi} a_{i+1},  b_{i+1} T_{i,Psi}^{-1}), two
    rank updates with the kept T_{i,Phi}^{-1}:
    T_{i,Psi}^{-1} = Id + a_i T_{i,Phi}^{-1} b_i (Jacobson).
    A twisted pair (T a, b T^{-1}) keeps the shapes and Id - b a, so the kept
    inverses of the result are those of q with the two slots swapped, and
    nothing is inverted."""
    return _generator(q, g, _twist)


def _mutate(m: TransportData, i: int) -> TransportData:
    p = m.permuted([*range(i), i + 1, i, *range(i + 2, m.n)])
    # the kept inverse of old slot i sits at slot i+1 of p
    u = p.m[i + 1][i] @ p.local_monodromy_inverse(i + 1)
    grid = [list(row) for row in p.m]
    for v in range(m.n):
        if v != i:
            grid[i][v] = p.m[i][v].plus_product(p.m[i + 1][v], p.m[i][i + 1], -1)
        if v != i and v != i + 1:
            grid[v][i] = p.m[v][i].plus_product(u, p.m[v][i + 1])
    grid[i + 1][i] = u
    return TransportData._checked(p.dims, tuple(map(tuple, grid)), p._t_inv)


def braid_act_transport(m: TransportData, g: int) -> TransportData:
    """Mutation of transport data under tau_k (g=+k) or tau_k^{-1} (g=-k),
    the image under mu of the quiver twist.

    With i = k-1 the 0-based left slot and p = m with slots i, i+1 swapped
    (`permuted`, which carries the kept inverses), tau_k changes only block
    row i and block column i of p, each block by one rank update:
      p'_{i,v} = p_{i,v} - p_{i+1,v} p_{i,i+1}           v != i
      p'_{v,i} = p_{v,i} + m_{i,i+1} T_i^{-1} p_{v,i+1}   v not in {i, i+1}
      p'_{i+1,i} = m_{i,i+1} T_i^{-1}
    with T_i^{-1} = (Id - m_ii)^{-1} the kept inverse.  The diagonal is p's,
    so nothing is inverted.
    """
    return _generator(m, g, _mutate)


def braid_act_word(obj, word: Sequence[int]):
    """Apply a word of signed generators left to right."""
    act = braid_act_quiver if isinstance(obj, Quiver) else braid_act_transport
    for g in word:
        obj = act(obj, g)
    return obj


# ---------------------------------------------------------------------------
# iterated transport / Vassiliev bookkeeping


def straight_line_vassiliev(q: Quiver, marked: Sequence[int]) -> tuple[MatQ, MatQ]:
    """Both sides of the alternating-sum identity for a straight path
    through the given marked slots.

    Left: a_{i_k} m_{i_{k-1} i_k} ... m_{i_1 i_2} b_{i_1} with m_ij = b_j a_i.
    Right: the alternating sum over bends, where passing a point with
    epsilon = 0 contributes Id and epsilon = 1 contributes T_{i,Psi}
    (the unique convention making k = 1 the Picard-Lefschetz identity).
    """
    if not marked:
        raise InvalidInput("need at least one marked point")
    lhs = q.b[marked[0]]
    for prev, cur in zip(marked, marked[1:]):
        lhs = (q.b[cur] @ q.a[prev]) @ lhs
    lhs = q.a[marked[-1]] @ lhs
    rhs = MatQ.zeros(q.d_psi, q.d_psi)
    for eps in itertools.product((0, 1), repeat=len(marked)):
        term = MatQ.identity(q.d_psi)
        for e, idx in zip(eps, marked):
            factor = q.t_psi(idx) if e == 1 else MatQ.identity(q.d_psi)
            term = factor @ term
        sign = -1 if sum(eps) % 2 else 1
        rhs = rhs + term.scale(sign)
    return lhs, rhs
