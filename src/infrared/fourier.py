"""The decategorified Fourier transform and its Stokes data.

Given transport data with marked points ordered against a direction, the
transformed sheaf on the dual plane has a one-singularity diagram built
from the spider representative:

    a-check_i = b_i T_{i-1,Psi}^{-1} ... T_{1,Psi}^{-1}
    b-check   = - sum_i a_i T_{i,Phi}^{-1}

with T_{i,Phi} = Id - b_i a_i and T_{i,Psi} = Id - a_i b_i, and the key
monodromy invariant

    Id - b-check a-check = (Id - a_N b_N)^{-1} ... (Id - a_1 b_1)^{-1}.

Products of slot monodromies (the right side above, the global monodromy
and the left side of the factorization) all come from monodromy_product.
Each factor is, in the Jacobson form

    (Id - a_i b_i)^{-1} = Id + a_i (Id - b_i a_i)^{-1} b_i,

a rank-d_i update that changes only column block i of the running product,
so the product is built one final column block at a time, in integers, in
ascending slot order; the descending product is the block reversal of the
ascending product of the slots taken in reverse.
For the spider representative gmv_embed(m), T_{i,Phi} = Id - m_ii is the
local monodromy T_i, so the update reads the inverse that TransportData
owns and inverts nothing itself.  With these arms e_i, the stacked a-check
is (Id - L)^{-1}, L the strictly block-lower part of the matrix of arms,
read as the transpose of the ascending arm product of L^T, so
fourier_diagram inverts nothing either.

Block (i, j) of the Stokes matrix C+ is the sum of the iterated
rectilinear transports over the (-conj(zeta0))-convex paths from w_i to
w_j, and C- mirrors this with the opposite convexity.  Each matrix comes
from one transfer-matrix dynamic program over convex chains
(_chain_matrix), run once per direction: over the slots of fourier_order
for C+ and over them in reverse for C-, so one sort serves both.  Every
source is a column block of the program's state, so a pair of slots costs
one block product however many sources reach it, and the whole matrix is
written as integer rows; the path enumeration of the paths module is the
test oracle.  The circumnavigation sums, over the convex polygons on a hull
edge [w_i, w_j], are one block of the same program, run in angular order
about w_i.  At each vertex the program adds the incoming sums once per
distinct set of predecessors that turn toward a later vertex.  The
ascending monodromy product of the dressed transport data factors exactly
as

    T_glob = C+ . Delta . (C-tilde)^{-1},   C-tilde = Id - (C- - Id) Delta,

where Delta is the block diagonal of the inverse local monodromies.  C-tilde
is block upper unitriangular, hence invertible, so factorization_check tests
T_glob . C-tilde == C+ . Delta and neither inverts nor solves.  It reads the
arms of T_glob from C+ Delta and (C- - Id) Delta, which the two sides need
anyway, and the diagonal blocks (m_ss - Id) Delta_s, so no dressed
transport data is built.  The product with C-tilde reads only its block
upper part, once the entries below its block diagonal are checked to be
zero, and products with Delta go one column block at a time.  Of the
exponents of Delta and of the twist, the side and sign of the twist and the
slot order of T_glob, the N=2 closed form admits this one convention;
factorization_check writes it out, and the test suite re-derives it from a
search over all the alternatives.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import DegeneratePosition, EdgePrecondition, InvalidInput, ShapeMismatch
from .geometry import Config, Dir, general_position, infinity_order
from .linalg import MatQ
from .perverse import TransportData


def fourier_order(A: Config, zeta: Dir) -> list[int]:
    """Indices sorted so Im(-zeta w) increases: the spider numbering toward
    the far point in direction -conj(zeta), read from the integer keys of
    geometry.infinity_order."""
    order, generic = infinity_order(A, zeta.conjugate().opposite())
    if not generic:
        raise DegeneratePosition(
            "configuration not in general position including the spider "
            "infinity"
        )
    return order


@dataclass(frozen=True)
class FourierDiagram:
    """(Phi-check, Psi-check) diagram of the transformed sheaf.

    order[s] is the original index sitting in spider slot s; a_check[s] and
    the column blocks of b_check are indexed by slots.
    """

    order: tuple[int, ...]
    dims: tuple[int, ...]          # slot dims, i.e. dims[order[s]]
    d_psi: int
    a_check: tuple[MatQ, ...]      # slot s: Psi -> Phi_{order[s]}
    b_check: MatQ                  # (+)Phi_1 ... (+)Phi_N -> Psi

    def monodromy(self) -> MatQ:
        """Id - b_check a_check, acting on Psi = (+)Phi_j."""
        a = MatQ.from_blocks([[blk] for blk in self.a_check])
        return MatQ.identity(self.d_psi) - self.b_check @ a


def _block_offsets(dims: Sequence[int]) -> list[int]:
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    return offs


def _assemble(offs: Sequence[int], blocks: dict) -> MatQ:
    """The matrix with block (s, t), a map slot_s -> slot_t, at block row t
    and column s, and zero blocks elsewhere: integer rows over the lcm of
    the block denominators.  Each block is canonical, so these rows are
    too."""
    size = offs[-1]
    den = math.lcm(*[b.den for b in blocks.values()])
    num = [[0] * size for _ in range(size)]
    for (s, t), b in blocks.items():
        lo, hi, f = offs[s], offs[s + 1], den // b.den
        for r, row in enumerate(b.num, offs[t]):
            num[r][lo:hi] = row if f == 1 else [v * f for v in row]
    return MatQ._wrap(tuple(map(tuple, num)), den, size)


def _times_block_diagonal(x: MatQ, offs: Sequence[int], diag: Sequence[MatQ]) -> MatQ:
    """x times the block diagonal matrix of the blocks diag, one column block
    at a time: column block s of the product is column block s of x times
    diag[s], O(D^2 d) work in place of a dense O(D^3) product."""
    den = math.lcm(*[b.den for b in diag])
    cols = [(lo, hi, [[v * (den // b.den) for v in c] for c in zip(*b.num)])
            for lo, hi, b in zip(offs, offs[1:], diag)]
    return MatQ._reduced(tuple([
        tuple([sum(map(mul, row[lo:hi], c)) for lo, hi, bcols in cols for c in bcols])
        for row in x.num
    ]), x.den * den, x.cols)


def _times_block_upper(x: MatQ, offs: Sequence[int], u: MatQ) -> MatQ:
    """x @ u for u zero below its block diagonal: column block s of the
    product reads only the rows of u in blocks 0..s.  Every entry of u below
    the block diagonal is first checked to be zero, O(D^2) comparisons, and
    a nonzero one raises, so the result is always the dense product."""
    un = u.num
    if any(any(un[r][:lo]) for lo, hi in zip(offs, offs[1:]) for r in range(lo, hi)):
        raise InvalidInput("matrix is not block upper triangular")
    u_cols = list(zip(*un))
    cols = [col[:hi] for lo, hi in zip(offs, offs[1:]) for col in u_cols[lo:hi]]
    return MatQ._reduced(tuple([
        tuple([sum(map(mul, row, col)) for col in cols]) for row in x.num
    ]), x.den * u.den, u.cols)


def _jacobson_arms(m: TransportData, offs: Sequence[int]) -> MatQ:
    """The matrix whose column block i is e_i = a_i T_{i,Phi}^{-1} for the
    spider representative gmv_embed(m), so that T_{i,Psi}^{-1} = Id + e_i b_i
    (Jacobson): a_i stacks the blocks m_ij over the slots j, and
    T_{i,Phi}^{-1} is the inverse local monodromy that m owns."""
    arms = _assemble(offs, {(i, j): b for i, row in enumerate(m.m) for j, b in enumerate(row)})
    return _times_block_diagonal(arms, offs, [m.local_monodromy_inverse(i) for i in range(m.n)])


def fourier_diagram(m: TransportData, zeta: Dir, A: Config) -> FourierDiagram:
    """Build the transform diagram from the straight spider toward
    -conj(zeta) infinity.

    With T_{j,Psi}^{-1} = Id + e_j b_j, row block i of the stacked a-check
    is b_i + sum_{j<i} (b_i e_j) a-check_j, so the stack is (Id - L)^{-1}
    for L the strictly block-lower part of the Jacobson arms e.  L^T is
    strictly block upper, so (Id - L^T)^{-1} is the ascending _arm_product."""
    order = fourier_order(A, zeta)
    mm = m.permuted(order)
    offs = _block_offsets(mm.dims)
    size = offs[-1]
    e = _jacobson_arms(mm, offs)
    # row r of L, r in block [lo, hi): row r of e left of lo, then zeros
    low = MatQ._reduced(tuple([
        row[:lo] + (0,) * (size - lo)
        for lo, hi in zip(offs, offs[1:]) for row in e.num[lo:hi]
    ]), e.den, size)
    stack = _arm_product(low.T, offs).T
    a_check = tuple([MatQ._reduced(stack.num[lo:hi], stack.den, size)
                     for lo, hi in zip(offs, offs[1:])])
    return FourierDiagram(tuple(order), tuple(mm.dims), size, a_check, -e)


def monodromy_product(m: TransportData, kind: str = "ascending") -> MatQ:
    """Ordered product of the inverse slot monodromies T_{i,Psi}^{-1}, with
    T_{i,Psi} = Id - a_i b_i of the spider representative gmv_embed(m):

        ascending           T_1^{-1} T_2^{-1} ... T_N^{-1}
        descending          T_N^{-1} ... T_2^{-1} T_1^{-1}

    Each factor is T_{i,Psi}^{-1} = Id + e_i b_i (Jacobson), with
    e_i = a_i T_{i,Phi}^{-1} the column blocks of _jacobson_arms, and
    _arm_product multiplies them out in ascending order.  Reversing the
    slots conjugates every factor by the block reversal of Psi, so the
    descending product is the block reversal of the ascending product of
    the reversed data."""
    if kind not in ("ascending", "descending"):
        raise InvalidInput(f"unknown monodromy product {kind!r}")
    if kind == "descending":
        rev = m.permuted(range(m.n - 1, -1, -1))
        return _reversed_blocks(monodromy_product(rev), rev.dims)
    offs = _block_offsets(m.dims)
    return _arm_product(_jacobson_arms(m, offs), offs)


def _arm_product(e: MatQ, offs: Sequence[int]) -> MatQ:
    """The product of the factors Id + e_i b_i in increasing slot order, e_i
    column block i of e and b_i the projection onto slot i.

    Right-multiplying by a factor changes column block i alone, so that
    block is final right after its own factor:

        T[:, i] = Id[:, i] + T[:, :lo] e_i[:lo] + e_i[lo:],

    where lo = offs[i] (the columns left of block i are final; every other
    column is still that of Id).  Each column is found as an integer vector
    over its own denominator, the final columns are kept as rows over the
    lcm of theirs, and one matrix is built at the end: about D^3 / 2
    multiply-adds in all."""
    size = offs[-1]
    e_cols, de = list(zip(*e.num)), e.den
    # rows[r] is row r of T[:, :lo] over dt
    rows: list[list[int]] = [[] for _ in range(size)]
    dt = 1
    for lo, hi in zip(offs, offs[1:]):
        den = dt * de
        block = []
        for c in range(lo, hi):
            ec = e_cols[c]
            head = ec[:lo]
            col = [sum(map(mul, row, head)) for row in rows]
            col[lo:] = [x + y * dt for x, y in zip(col[lo:], ec[lo:])]
            col[c] += den
            g = math.gcd(den, *col)
            block.append((col, g, den // g))
        grown = math.lcm(dt, *[d for _, _, d in block])
        if grown != dt:
            f, dt = grown // dt, grown
            rows = [[v * f for v in row] for row in rows]
        new = zip(*[[v // g * (dt // d) for v in col] for col, g, d in block])
        for row, vals in zip(rows, new):
            row.extend(vals)
    # every column is in lowest terms over its own denominator and dt is
    # their lcm, so these rows are canonical
    return MatQ._wrap(tuple(map(tuple, rows)), dt, size)


def iterated_transport(m: TransportData, vertices: Sequence[int]) -> MatQ:
    """Plain composition of rectilinear transports along a vertex chain."""
    if len(vertices) < 2:
        raise ShapeMismatch("need at least two vertices")
    acc = m.m[vertices[0]][vertices[1]]
    for a, b in zip(vertices[1:], vertices[2:]):
        acc = m.m[a][b] @ acc
    return acc


# ---------------------------------------------------------------------------
# Stokes matrices as convex-path sums


def _block(x: MatQ, offs: Sequence[int], s: int, t: int) -> MatQ:
    """Block (s, t) of x, a map slot_s -> slot_t: the rows of block t and the
    columns of block s, in lowest terms."""
    lo, hi = offs[s], offs[s + 1]
    rows = x.num[offs[t]:offs[t + 1]]
    return MatQ._reduced(tuple([row[lo:hi] for row in rows]), x.den, hi - lo)


@dataclass(frozen=True)
class StokesPair:
    order: tuple[int, ...]          # slot -> original index
    dims: tuple[int, ...]           # per slot
    c_plus: MatQ
    c_minus: MatQ

    @functools.cached_property
    def blocks(self) -> dict:
        """Every off-diagonal path sum, keyed (source slot, target slot): the
        blocks of C+ for s < t and of C- for s > t."""
        offs = _block_offsets(self.dims)
        return {(s, t): _block(self.c_plus if s < t else self.c_minus, offs, s, t)
                for s, t in itertools.permutations(range(len(self.dims)), 2)}


def _chain_total(states: list, width: int) -> list[list[int]]:
    """The sum of chain states, integer rows of at most `width` entries each,
    as rows of exactly `width` entries."""
    out = [list(map(sum, itertools.zip_longest(*rows, fillvalue=0))) for rows in zip(*states)]
    for row in out:
        row += [0] * (width - len(row))
    return out


def _chain_step(edge: list, x, unit: int, width: int) -> list[list[int]]:
    """The chain state edge . (x | unit Id): the rows of edge times the
    `width` columns of x (zero if x is None or has no rows), then edge times
    unit."""
    if not x:
        return [[0] * width + [unit * v for v in row] for row in edge]
    cols = list(zip(*x))
    return [[sum(map(mul, row, col)) for col in cols] + [unit * v for v in row]
            for row in edge]


def _chain_matrix(
    m: TransportData, seq: Sequence[int], t, turn: int, sign: int = 1
) -> MatQ:
    """The block unit lower triangular matrix whose block (p, q), p > q, is
    the sum over the chains from seq[q] to seq[p] that run forward in seq and
    turn with t[a][b][c] == turn at every intermediate vertex b, of the
    product of their edge blocks, each times `sign`; block p has the
    dimension of seq[p].

    A transfer-matrix DP over convex chains (Eppstein, Overmars, Rote and
    Woeginger, DCG 1992; Mitchell, Rote, Sundaram and Woeginger, IPL 1995),
    run once for every source, each source a column block.  S(a, b) sums the
    chains whose last edge is a -> b.  When b comes up in seq every edge
    into b is final, so row block b is E_b + the sum of the S(a, b), E_b the
    unit in column block b (the chain that starts at b), and a chain through
    b continues to a later c when it turns there:

        S(b, c) = sign m_bc X(b, c),   X(b, c) = E_b + sum of the S(a, b)
                                                 whose a turns at b toward c.

    So each pair b, c costs one block product (_chain_step) and each
    distinct set of turning predecessors at b one sum (_chain_total); the
    full set is row block b.  Everything is integer rows: with delta the lcm
    of the edge block denominators, the states into the vertex at position p
    are kept times delta^p, and each edge scales its block by the power of
    delta that its positions call for, so no denominator is formed before
    the one division of the result."""
    n = len(seq)
    offs = _block_offsets([m.dims[v] for v in seq])
    size = offs[-1]
    delta = math.lcm(*[m.m[b][c].den for k, b in enumerate(seq) for c in seq[k + 1:]])
    into: list[dict] = [{} for _ in range(n)]  # into[c][a] = S(a, c) delta^c
    rows = []
    for pb, b in enumerate(seq):
        lo, hi = offs[pb], offs[pb + 1]
        unit, last = delta ** pb, into[pb]
        # one sum per distinct set of predecessors that turn toward some c;
        # the full set is row block b
        sums = {(): None}
        if last:
            sums[tuple(last)] = _chain_total(list(last.values()), lo)
        full = sums[tuple(last)] or [[0] * lo for _ in range(lo, hi)]
        scale = delta ** (n - 1 - pb)
        for r, row in enumerate(full):
            row = row + [0] * r + [unit] + [0] * (size - lo - 1 - r)
            rows.append(tuple(row) if scale == 1 else tuple([v * scale for v in row]))
        for pc in range(pb + 1, n):
            c = seq[pc]
            turns = tuple([a for a in last if t[seq[a]][b][c] == turn])
            if turns not in sums:
                sums[turns] = _chain_total([last[a] for a in turns], lo)
            blk = m.m[b][c]
            f = sign * delta ** (pc - pb - 1) * (delta // blk.den)
            edge = [[v * f for v in row] for row in blk.num]
            into[pc][pb] = _chain_step(edge, sums[turns], unit, lo)
    return MatQ._reduced(tuple(rows), delta ** (n - 1), size)


def _reversed_blocks(x: MatQ, dims: Sequence[int]) -> MatQ:
    """x, with blocks of the given dims, with the order of its row blocks and
    of its column blocks reversed."""
    offs = _block_offsets(dims)
    spans = [slice(lo, hi) for lo, hi in zip(offs, offs[1:])][::-1]
    return MatQ._wrap(tuple([
        tuple([v for cs in spans for v in row[cs]]) for rs in spans for row in x.num[rs]
    ]), x.den, x.cols)


def stokes_pair(m: TransportData, A: Config, zeta0: Dir) -> StokesPair:
    """Both Stokes matrices of the transform in direction zeta0.

    Slots follow fourier_order(A, zeta0), i.e. the infinity keys of
    -conj(zeta0) increasing; C+ sums iterated transports over
    (-conj(zeta0))-convex paths upward in slots, C- over (conj(zeta0))-convex
    paths downward.
    """
    rep = general_position(A)
    if not rep.strong_lin_general:
        raise DegeneratePosition("Stokes sums need strong general position")
    order = fourier_order(A, zeta0)
    dims = [m.dims[i] for i in order]
    t = A.sign_table()
    # the keys of conj(zeta0) are minus those of -conj(zeta0), so C- runs over
    # the reversed order; both convexities take the clockwise turn
    # t[u][v][w] == -1 of enumerate_zeta_convex_paths
    c_plus = _chain_matrix(m, order, t, -1)
    c_minus = _reversed_blocks(_chain_matrix(m, order[::-1], t, -1), dims[::-1])
    return StokesPair(tuple(order), tuple(dims), c_plus, c_minus)


def dressed_transport(
    m: TransportData, A: Config, zeta0: Dir
) -> tuple[TransportData, StokesPair]:
    """Transport data relative to the far spider: slots in the Stokes
    numbering, ascending blocks replaced by the C+ path sums, descending
    blocks by the C- path sums, diagonal untouched.

    These are the transports along paths through the faraway point; unlike
    the raw rectilinear entries they are invariant under collinearity
    wall-crossing, which makes them the right input for global-monodromy
    statements.  This is the dressed-data API: no function of the library
    calls it (factorization_check reads the Stokes matrices directly), and
    the chamber invariance of the monodromy, closed loops as braids and the
    Stokes data as zeta0 rotates (ROADMAP items 1, 3 and 4) read it.
    """
    pair = stokes_pair(m, A, zeta0)
    return m.permuted(pair.order).replace(pair.blocks), pair


def global_monodromy(m: TransportData, A: Config, zeta0: Dir) -> MatQ:
    """Ascending product (Id - a_1 b_1)^{-1} (Id - a_2 b_2)^{-1} ... of the
    dressed (spider) representative: the monodromy invariant preserved by
    every collinearity wall-crossing.  It is the left side of the
    factorization, which reads its arms from the Stokes matrices."""
    return factorization_check(m, A, zeta0).lhs


@dataclass(frozen=True)
class FactorizationReport:
    """The factors of T_glob = C+ . Delta . (C-tilde)^{-1} and the verdict:
    `ok` is T_glob . C-tilde == C+ . Delta, equivalent because C-tilde is
    block upper unitriangular, hence invertible."""

    ok: bool
    lhs: MatQ
    c_plus: MatQ
    c_minus: MatQ
    c_minus_twisted: MatQ
    delta: MatQ
    order: tuple[int, ...]


def factorization_check(
    m: TransportData, A: Config, zeta0: Dir
) -> FactorizationReport:
    """Exact test of the monodromy = Stokes-product identity

        T_glob = C+ . Delta . (C-tilde)^{-1},

    on the dressed transport data, with T_glob the ascending monodromy
    product, Delta the block diagonal of the inverse local monodromies and
    C-tilde = Id - (C- - Id) Delta.  C-tilde is block upper unitriangular,
    so the identity holds exactly when T_glob . C-tilde == C+ . Delta, and
    nothing is inverted or solved.

    No dressed TransportData is built.  Its arms are C+ - Id, C- - Id and
    the diagonal blocks m_ss, so the Jacobson arms of T_glob are

        e = C+ Delta + (C- - Id) Delta + blockdiag((m_ss - Id) Delta_s),

    from C+ Delta and (C- - Id) Delta, each formed once (one column block
    at a time).  e is not written as C+ Delta - C-tilde, which puts -Id in
    place of the blocks (m_ss - Id) Delta_s: for every block lower U and
    block upper unitriangular V, the ascending product of the arms U - V
    times V is U, so the verdict would hold by construction.  Written as
    above, it holds exactly when every Delta_s inverts Id - m_ss.  The
    product with C-tilde reads only its block upper part
    (_times_block_upper checks that the rest is zero)."""
    pair = stokes_pair(m, A, zeta0)
    offs = _block_offsets(pair.dims)
    inv = [m.local_monodromy_inverse(i) for i in pair.order]
    ident = MatQ.identity(offs[-1])
    c_plus_delta = _times_block_diagonal(pair.c_plus, offs, inv)
    c_minus_delta = _times_block_diagonal(pair.c_minus - ident, offs, inv)
    own = {(s, s): (-d).plus_product(m.m[i][i], d)
           for s, (i, d) in enumerate(zip(pair.order, inv))}
    e = MatQ.total([c_plus_delta, c_minus_delta, _assemble(offs, own)])
    lhs = _arm_product(e, offs)
    c_til = ident - c_minus_delta
    ok = _times_block_upper(lhs, offs, c_til) == c_plus_delta
    return FactorizationReport(
        ok, lhs, pair.c_plus, pair.c_minus, c_til,
        _assemble(offs, {(s, s): b for s, b in enumerate(inv)}), pair.order,
    )


# ---------------------------------------------------------------------------
# circumnavigation sums


def _circum_chain_sum(m: TransportData, A: Config, i: int, j: int, sign: int) -> MatQ:
    """Sum over the convex polygons with the hull edge [w_i, w_j] of the
    transports along the polygon from w_i to w_j, each edge times `sign`.

    The polygon lies on side = t[i][j][w] of the edge, and its corners after
    w_i come in decreasing angle about w_i from the ray to w_j, which
    t[i][a][b] compares; points on the line through w_i and w_j are never
    corners.  The chains through the sorted points that turn by -side at
    every corner are exactly these polygons, so they are block (0, last)
    of one _chain_matrix run."""
    hull = A.hull()
    if frozenset((i, j)) not in {frozenset(e) for e in zip(hull, hull[1:] + hull[:1])}:
        raise EdgePrecondition(f"[{i},{j}] is not a hull edge")
    t = A.sign_table()
    others = [w for w in range(len(A)) if w not in (i, j) and t[i][j][w]]
    side = t[i][j][others[0]] if others else 1
    others.sort(key=functools.cmp_to_key(lambda a, b: side * t[i][a][b]))
    seq = [i, *others, j]
    c = _chain_matrix(m, seq, t, -side, sign)
    return _block(c, _block_offsets([m.dims[v] for v in seq]), 0, len(seq) - 1)


def circum_sum(m: TransportData, A: Config, i: int, j: int) -> MatQ:
    """Sum of iterated transports over the convex circumnavigation paths
    from w_i to w_j; requires [w_i, w_j] to be a hull edge."""
    return _circum_chain_sum(m, A, i, j, 1)


def alt_circum_sum(m: TransportData, A: Config, j: int, i: int) -> MatQ:
    """Sign-alternating sum (-1)^(intermediate vertices) over the same
    polygons traversed from w_j to w_i: a path with k intermediate vertices
    has k + 1 edges, so this is minus the sum with every edge negated."""
    return -_circum_chain_sum(m, A, j, i, -1)
