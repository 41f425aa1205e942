"""Rank oracles, the lattice walk, and the primitives built on them.

All matroids share one integer index space: `live` is the mask of usable
element indices and every subset argument is a mask over it.  Views
(minors, restrictions) keep the parent's indexing, so sets never need
translating and certificates built inside a search replay against the root
matroid unchanged.

Loops are allowed everywhere; point counting ignores them, since
contraction creates loops and the point count is insensitive to them.

Closure and points have a generic route through the rank oracle on
`Matroid`, kept as the reference; a `LinearMatroid` answers closure from
one echelon basis and points from its cached point classes.
`contractions` is the one enumeration of the flat lattice, walked by
flats, the minor searches and the recognizer.
"""

from itertools import chain

from .bitset import bits, check_ground_size, lowest, mask_of, popcount, spread
from .certificates import HyperplanePairCover, Partition
from .errors import (InternalContradiction, OutOfRange, OverlapError,
                     PreconditionFailed, RankZero, SizeLimit)
from .field import vector_packing


class Matroid:
    """Base rank oracle.  Subclasses set `n`, `live` and `_rank_impl`.

    `n` is the width of the index space; `live` the mask of actual elements
    (for top-level matroids simply (1 << n) - 1).  Instances are immutable
    after construction; internal caches only ever go from unset to a final
    value, so concurrent readers always observe a consistent result.
    """

    def _init_ground(self, n: int, live: int | None = None):
        """Set the index space; `live` defaults to all n elements, built only
        once n has passed the size cap."""
        check_ground_size(n)
        self.n = n
        self.live = (1 << n) - 1 if live is None else live
        self._rank_full = None
        self._keyed = None
        self._roundness = None

    # -- rank ------------------------------------------------------------

    def _rank_impl(self, subset: int) -> int:
        raise NotImplementedError

    def rank(self, subset: int) -> int:
        if subset & ~self.live:
            raise OutOfRange(f"subset 0x{subset:x} has bits outside the ground set")
        return self._rank_impl(subset)

    @property
    def rank_full(self) -> int:
        if self._rank_full is None:
            self._rank_full = self._rank_impl(self.live)
        return self._rank_full

    @property
    def size(self) -> int:
        """Number of elements (loops included)."""
        return popcount(self.live)

    # -- closure and flats -------------------------------------------------

    def closure(self, subset: int) -> int:
        """Elements whose addition does not raise the rank of `subset`:
        `_closure_impl(subset, live)`.  Internal callers that read the
        closure at a few elements pass those as `within`, so each route
        tests only them."""
        if subset & ~self.live:
            raise OutOfRange(f"subset 0x{subset:x} has bits outside the ground set")
        return self._closure_impl(subset, self.live)

    def _closure_impl(self, subset: int, within: int) -> int:
        """cl(subset) & within, for `within` a subset of live: only the
        elements of within - subset are tested, here by a rank call each."""
        r0 = self._rank_impl(subset)
        out = subset & within
        for e in bits(within & ~subset):
            if self._rank_impl(subset | (1 << e)) == r0:
                out |= 1 << e
        return out

    def _extend_basis(self, base: int, scan: int, limit: int) -> int:
        """The elements of `scan`, in index order, that each lie outside
        the closure of `base` and of the ones taken before them, at most
        `limit` of them; here by a rank call each.  With base empty and no
        limit below r(scan), a basis of `scan`."""
        taken = 0
        r = self._rank_impl(base)
        for e in bits(scan):
            if not limit:
                break
            if self._rank_impl(base | taken | 1 << e) > r:
                taken |= 1 << e
                r += 1
                limit -= 1
        return taken

    def loops(self) -> int:
        return self.closure(0)

    def flats_of_rank(self, k: int) -> list:
        """All rank-k flats, sorted ascending as masks: the closures at
        depth k of `contractions`, which reaches each flat once.  Only the
        flats of rank < k have their points taken, one projection each."""
        if k < 0 or k > self.rank_full:
            raise OutOfRange(f"no flats of rank {k} in a rank-{self.rank_full} matroid")
        return sorted(flat for contract, flat, _ in contractions(self, k)
                      if popcount(contract) == k)

    # -- points ------------------------------------------------------------

    def points(self, within: int | None = None) -> list:
        """Parallel classes of non-loops (rank-1 flats minus loops), as masks,
        ordered by least element.  The points of M|within are the classes
        of M that meet `within`, cut to it; over a linear root they are read
        off the cached classes of M, on other matroids found by rank calls."""
        if within is None:
            return list(self._keyed_points().values())
        if within & ~self.live:
            raise OutOfRange("subset has bits outside the ground set")
        return self._points_impl(within)

    def _points_impl(self, within: int) -> list:
        classes = []
        reps = []
        for e in bits(within):
            eb = 1 << e
            if self._rank_impl(eb) == 0:
                continue
            for i, rep in enumerate(reps):
                if self._rank_impl(rep | eb) == 1:
                    classes[i] |= eb
                    break
            else:
                reps.append(eb)
                classes.append(eb)
        return classes

    def _keyed_points(self) -> dict:
        """The points as {key: class}, cached: keys are normal forms over a
        linear root (see `contractions`), positions on the generic route."""
        if self._keyed is None:
            self._keyed = dict(enumerate(self._points_impl(self.live)))
        return self._keyed

    def _cut_points(self, within: int) -> list:
        """The points of M|within read off the cached points of M: the
        classes that meet `within`, cut to it, by least element."""
        out = [x for c in self._keyed_points().values() if (x := c & within)]
        out.sort(key=lowest)
        return out

    def epsilon(self, within: int | None = None) -> int:
        """Number of points, of the whole matroid or of the restriction to
        `within`."""
        return len(self.points(within))

    def representatives(self, within: int | None = None) -> int:
        """Mask of the least-index element of each point class."""
        return mask_of(lowest(c) for c in self.points(within))

    def is_simple(self) -> bool:
        pts = self.points()
        return popcount(self.live) == len(pts) and all(popcount(c) == 1 for c in pts)

    def lines(self, min_points: int = 2) -> list:
        """Rank-2 flats carrying at least `min_points` points."""
        if min_points < 2:
            raise PreconditionFailed("a line has at least 2 points")
        if self.rank_full < 2:
            return []
        return [f for f in self.flats_of_rank(2) if self.epsilon(f) >= min_points]

    # -- connectivity --------------------------------------------------------

    def local_connectivity(self, a: int, b: int) -> int:
        return self.rank(a) + self.rank(b) - self.rank(a | b)

    def is_skew(self, a: int, b: int) -> bool:
        return self.local_connectivity(a, b) == 0

    # -- minors ----------------------------------------------------------------

    def minor(self, contract: int = 0, delete: int = 0) -> "MinorView":
        if contract & delete:
            raise OverlapError("contract and delete sets overlap")
        if (contract | delete) & ~self.live:
            raise OutOfRange("minor sets have bits outside the ground set")
        return MinorView(self, contract, delete)

    def contract(self, contract: int) -> "MinorView":
        return self.minor(contract=contract)

    def delete(self, delete: int) -> "MinorView":
        return self.minor(delete=delete)

    def restrict(self, keep: int) -> "MinorView":
        if keep & ~self.live:
            raise OutOfRange("restriction has bits outside the ground set")
        return MinorView(self, 0, self.live & ~keep)

    def simplify(self) -> "MinorView":
        """Restriction keeping the least-index representative of each point."""
        return self.restrict(self.representatives())

    # -- roundness ---------------------------------------------------------------

    def roundness(self):
        """Decide whether the ground set splits into two sets of rank < r(M).

        Equivalent to asking for two rank-(r-1) flats covering the ground
        set: the closures of the two cells of any such split are proper
        flats, and a proper flat extends to a rank-(r-1) flat by adding
        elements while the rank stays below r; conversely a covering pair
        (H1, H2) yields the split (H1, E - H1) with both ranks below r.
        The search grows two closed cells, A and B, branching on the least
        element e not yet covered: e joins A first, and joins B only once
        that subtree has failed; a cell that would reach full rank is
        pruned.  It is one loop over a stack of entries (A, K_A, I_A, B,
        K_B, I_B, F, e): e = 0 marks a node to expand, e a single bit the
        deferred branch that puts e into B.  I_A is an independent set
        with cl(I_A) = A (likewise I_B), so r(A + e) = |I_A| + 1 for the
        uncovered e and A + e closes as cl(I_A + e), with no rank call.
        K_A is what A carries to grow by (`_cells`, chosen once per call).
        Over a linear root it is the keyed points of M/I_A, whose classes
        are exactly the elements outside A; the points of M/(I_A + e) are
        one walk-child step from them (`LinearMatroid._project_child`),
        and cl(I_A + e) is what their classes leave, so a growth makes no
        elimination and grows the same closure.  The stack keeps one dict
        per growth on the current path, so memory is O(path depth x points
        of M): at most 2r dicts of at most eps(M) entries, bounded through
        MAX_GROUND by 2 * MAX_GROUND^2 entries.  Other roots carry nothing
        and grow by one closure of I_A + e.

        F holds every e the path has put into B by a deferred branch, and
        a grown A that meets F is pruned; no set of visited pairs is kept.
        (i) A search from (A, B, F) finds a cover whenever some covering
        pair of hyperplanes H1 >= A, H2 >= B has H1 disjoint from F, by
        induction on the uncovered elements: if e is in H1, the A-branch
        stays inside H1; otherwise e is in H2, and the B-branch adds e to
        F, still disjoint from H1.  (ii) Pruning drops no hit: by
        induction in search order, the subtrees pruned so far hold none,
        so a subtree that failed would fail unpruned too, and no covering
        pair extends its root.  The B-branch for e runs only once the
        A-branch (A + e, B) has failed, so no covering pair extends a
        later node whose A holds e, and those are the pruned ones.  The
        first hit, and so the cover, is the one the unpruned tree meets
        first.  (iii) Two paths first differ at some e, which is in A on
        one and in F, so never in A, on the other: no ordered pair (A, B)
        is expanded twice.
        """
        if self._roundness is not None:
            return self._roundness
        r = self.rank_full
        if r == 0:
            raise RankZero("roundness is undefined at rank 0")
        live = self.live
        loops, top, grow = self._cells()
        # the first non-loop goes to side A; sides are symmetric
        x = live & ~loops
        x &= -x
        stack = [(*grow(loops, 0, top, x), x, loops, top, 0, 0, 0)] if r > 1 else []
        hit = None
        while stack:
            a, ka, ia, b, kb, ib, fa, e = stack.pop()
            if e:
                if popcount(ib) + 1 < r:
                    stack.append((a, ka, ia, *grow(b, ib, kb, e), ib | e, fa | e, 0))
                continue
            uncovered = live & ~(a | b)
            if not uncovered:
                hit = a, ia, b, ib
                break
            e = uncovered & -uncovered
            stack.append((a, ka, ia, b, kb, ib, fa, e))
            if popcount(ia) + 1 < r:
                grown, carry = grow(a, ia, ka, e)
                if not grown & fa:
                    stack.append((grown, carry, ia | e, b, kb, ib, fa, 0))
        if hit is None:
            self._roundness = (True, None)
        else:
            h1 = self._extend_to_hyperplane(*hit[:2])
            h2 = self._extend_to_hyperplane(*hit[2:])
            self._roundness = (False, HyperplanePairCover(h1, h2))
        return self._roundness

    def _cells(self):
        """How `roundness` grows a cell: (loops, carry of the empty set,
        grow), where grow(cell, indep, carry, e), for indep independent
        with cl(indep) = cell and e outside the cell, returns
        (cl(indep + e), its carry).  Here a cell carries nothing and grows
        by one closure of indep + e, tested only outside the cell."""
        live, closure = self.live, self._closure_impl

        def grow(cell, indep, carry, e):
            return cell | closure(indep | e, live & ~cell), None
        return closure(0, live), None, grow

    def _projected_cells(self, project_child):
        """`_cells` over a linear root: cl(I) carries the keyed points of
        M/I, whose classes cover exactly the elements outside cl(I).  A
        growth by e is one `project_child` step at the key of e's class,
        and the grown cell is what the child's classes leave of `live`
        (classes are disjoint, so their sum is their union)."""
        live = self.live

        def grow(cell, indep, keyed, e):
            for key, c in keyed.items():
                if c & e:
                    break
            keyed = project_child(keyed, key)
            return live - sum(keyed.values()), keyed
        top = self._keyed_points()
        return live - sum(top.values()), top, grow

    def _extend_to_hyperplane(self, flat: int, indep: int) -> int:
        """The rank-(r-1) flat reached from the flat `flat` by adding the
        least element outside it and closing, until the rank is r - 1.
        Below rank r - 1 every element keeps the rank below r, so that is
        cl(I + J) for I = `indep`, independent with cl(I) = flat, and J the
        greedy extension of I by r - 1 - |I| elements outside `flat`."""
        r = self.rank_full
        extra = self._extend_basis(indep, self.live & ~flat, r - 1 - popcount(indep))
        flat = self._closure_impl(indep | extra, self.live) if extra else flat
        k = self.rank(flat)
        if k != r - 1:
            # a rank oracle obeying the axioms always reaches rank r - 1
            raise InternalContradiction(
                f"extending to a hyperplane gave the rank-{k} flat 0x{flat:x}, "
                f"not rank {r - 1}")
        return flat

    def is_round(self) -> bool:
        return self.roundness()[0]

    def non_round_partition(self) -> Partition | None:
        """The hyperplane-pair witness as a two-cell split, or None if round."""
        ok, cover = self.roundness()
        if ok:
            return None
        return Partition(cover.hyperplane_a, self.live & ~cover.hyperplane_a)


class UniformMatroid(Matroid):
    """U_{r,n}: every subset of at most r elements is independent."""

    def __init__(self, r: int, n: int):
        if not 0 <= r <= n:
            raise PreconditionFailed(f"need 0 <= r <= n, got r={r}, n={n}")
        self._init_ground(n)
        self.r = r

    def _rank_impl(self, subset: int) -> int:
        c = popcount(subset)
        return c if c < self.r else self.r

    def __repr__(self):
        return f"UniformMatroid({self.r}, {self.n})"


class LinearMatroid(Matroid):
    """Columns of a matrix over GF(q); rank = column rank by elimination.

    Rank queries are cached per subset mask; views share the cache through
    the root.  Columns are packed into ints once (`field.VectorPacking`).
    Over GF(2) they are reduced by xor against a basis of leading bits;
    over larger fields a basis row holds its pivot offset and its
    multiples by slot pattern, so a reduction step is one shift, one mask
    and one slot-wise add.  Such a row is built once per matroid and kept
    in `_rows` under the reduced vector that made it (at most q^nrows - 1
    entries, held as long as the matroid, like the rank memo).  A rank
    call reduces each column inline and, when it returns no basis, counts
    its last independent column (the one that reaches `nrows`, or the
    subset's last) without adding it to the basis, since no column reduces
    against it.  The table route would serve GF(2) as well, with the same
    outputs, but the xor kernel is kept: the GF(2)-heavy census workload
    runs measurably slower without it.  cl(X) & within
    eliminates X once and keeps the columns of within - X that reduce to
    zero against that basis;
    `_extend_basis` extends such a basis by each column whose residue
    against it is nonzero, a column at a time.  The points
    of M/C are the columns projected modulo span(C); the root projects all
    its columns once (C empty, keyed by normal form), so points(within) on
    it and on its restrictions is a lookup that makes no normal form or
    rank call.  A walk child M/(C + e) refines its parent's keys by one
    inlined reduction step against the key of e's class, and rescales
    only the keys whose leading coordinate that step cleared; a class
    that no other class joins stays its parent's int.  A roundness cell
    cl(I) grows the same way: it carries the keyed points of M/I, and a
    growth by e is one such step, with no echelon basis (`_cells`,
    `Matroid.roundness`).  Over GF(q),
    q > 2, with q^nrows <= 2^13 (`field.NORMAL_TABLE_CAP`, which covers
    PG(3,9)'s 6,561 vectors) projections rescale by one lookup in
    `VectorPacking.normals`, a dict of all q^nrows - 1 nonzero vectors
    built per packing by the first projection, never by a rank call;
    above the cap they call `VectorPacking.chunk_normal`, which rescales
    a chunk of the vector at a time.
    """

    def __init__(self, fieldspec, columns):
        columns = tuple(tuple(c) for c in columns)
        self._init_ground(len(columns))
        self.field = fieldspec
        self.columns = columns
        self.nrows = len(columns[0]) if columns else 0
        q = fieldspec.q
        entries = set(chain.from_iterable(columns))
        if (set(map(len, columns)) - {self.nrows}
                or entries and not (0 <= min(entries) and max(entries) < q)):
            # name the first bad column
            for j, col in enumerate(columns):
                if len(col) != self.nrows:
                    raise PreconditionFailed(f"column {j} has wrong height")
                if any(not 0 <= a < q for a in col):
                    raise OutOfRange(f"column {j} has entries outside 0..{q - 1}")
        self._cache = {0: 0}
        self._gf2 = q == 2
        self._pack = vector_packing(fieldspec, self.nrows)
        self._vecs = tuple(map(self._pack.pack, columns))
        self._rows = {}

    def _rank_impl(self, subset: int) -> int:
        got = self._cache.get(subset)
        if got is not None:
            return got
        if self._gf2:
            rank = self._rank_gf2(subset)
        else:
            rank = self._rank_tables(subset)
        self._cache[subset] = rank
        return rank

    def _rank_gf2(self, subset: int, basis: list | None = None) -> int:
        """Rank of span(basis) plus the columns of `subset`; a given
        `basis` (leading bits distinct, largest first) is extended in place.
        Each column is reduced inline, as in `_reduce_gf2`; with no `basis`
        the column that brings the rank to `nrows`, or the last one, is
        counted without joining the basis, since no column reduces against
        it."""
        keep = basis is not None
        if not keep:
            basis = []
        vectors, nrows, n = self._vecs, self.nrows, len(basis)
        while subset and n < nrows:
            low = subset & -subset
            subset ^= low
            v = vectors[low.bit_length() - 1]
            for b in basis:
                w = v ^ b
                if w < v:
                    v = w
            if v:
                n += 1
                if keep or subset and n < nrows:
                    basis.append(v)
                    basis.sort(reverse=True)
        return n

    def _rank_tables(self, subset: int, basis: list | None = None) -> int:
        """Rank of span(basis) plus the columns of `subset`; a given
        `basis` (rows from `_row`, by pivot) is extended in place.  Each
        column is reduced inline, as in `_reduce_tables`, and the row of a
        reduced vector comes from `_rows`; with no `basis` the column that
        brings the rank to `nrows`, or the last one, is counted without a
        row, since no column reduces against it."""
        keep = basis is not None
        if not keep:
            basis = []
        pk = self._pack
        rows, vectors, nrows, n = self._rows, self._vecs, self.nrows, len(basis)
        mask, odd = pk.mask, pk.p != 2
        if odd:
            bias, guard, shift, p = pk.bias, pk.guard, pk.w - 1, pk.p
        while subset and n < nrows:
            low = subset & -subset
            subset ^= low
            v = vectors[low.bit_length() - 1]
            if odd:
                for off, mults in basis:  # `VectorPacking.add`, inlined
                    c = v >> off & mask
                    if c:
                        s = v + mults[c]
                        v = s - ((s + bias & guard) >> shift) * p
            else:
                for off, mults in basis:
                    v ^= mults[v >> off & mask]
            if v:
                n += 1
                if keep or subset and n < nrows:
                    basis.append(rows.get(v) or self._row(v))
                    basis.sort()
        return n

    def _row(self, v: int) -> tuple:
        """The basis row of the normal form of nonzero v, built once per
        matroid and kept in `_rows` under v: a reduced vector names its row
        whatever basis reduced it."""
        pk = self._pack
        row = self._rows[v] = pk.row(pk.normal(v))
        return row

    def _reduce_gf2(self, v: int, basis: list) -> int:
        """Packed vector v modulo span(basis).  Basis vectors have distinct
        leading bits and come largest first, so the result has none of
        those bits set: it is 0 iff v lies in the span, and the same for
        every column of one point of M/span(basis)."""
        for b in basis:
            w = v ^ b
            if w < v:
                v = w
        return v

    def _reduce_tables(self, v: int, basis: list) -> int:
        """Packed vector v modulo span(basis), over GF(q), q > 2.  Basis
        rows come in pivot order, each zero before its pivot and 1 at it,
        so the result is zero at every basis pivot: the one such vector of
        its coset, and 0 iff v lies in the span."""
        pk = self._pack
        mask = pk.mask
        if pk.p == 2:
            for off, mults in basis:
                v ^= mults[v >> off & mask]
            return v
        bias, guard, shift, p = pk.bias, pk.guard, pk.w - 1, pk.p
        for off, mults in basis:  # `VectorPacking.add`, inlined
            c = v >> off & mask
            if c:
                s = v + mults[c]
                v = s - ((s + bias & guard) >> shift) * p
        return v

    def _normal_tables(self, v: int, basis: list, normals: dict | None) -> int:
        """`_reduce_tables` scaled to 1 at its lowest nonzero coordinate,
        read from `normals` (`VectorPacking.normals`) where the packing has
        that table: the same for every column of one point of
        M/span(basis), so the key of that point (0 if v lies in the span)."""
        v = self._reduce_tables(v, basis)
        if not v:
            return 0
        return normals[v] if normals else self._pack.chunk_normal(v)

    def _echelon(self, subset: int) -> list:
        """An echelon basis of the columns of `subset`."""
        basis = []
        (self._rank_gf2 if self._gf2 else self._rank_tables)(subset, basis)
        return basis

    def _closure_impl(self, subset: int, within: int) -> int:
        basis = self._echelon(subset)
        residue = self._reduce_gf2 if self._gf2 else self._reduce_tables
        vectors = self._vecs
        out = subset & within
        s = within & ~subset
        while s:
            low = s & -s
            s ^= low
            if not residue(vectors[low.bit_length() - 1], basis):
                out |= low
        return out

    def _extend_basis(self, base: int, scan: int, limit: int) -> int:
        # one echelon basis of `base`, extended by each column of `scan`
        # whose residue against it is nonzero
        basis = self._echelon(base)
        gf2 = self._gf2
        residue = self._reduce_gf2 if gf2 else self._reduce_tables
        rows, vectors = self._rows, self._vecs
        taken = 0
        while scan and limit:
            low = scan & -scan
            scan ^= low
            v = residue(vectors[low.bit_length() - 1], basis)
            if v:
                taken |= low
                limit -= 1
                if gf2:
                    basis.append(v)
                    basis.sort(reverse=True)
                else:
                    basis.append(rows.get(v) or self._row(v))
                    basis.sort()
        return taken

    def _points_impl(self, within: int) -> list:
        return self._cut_points(within)

    def _keyed_points(self) -> dict:
        if self._keyed is None:
            self._keyed = self._project(self.live, 0)
        return self._keyed

    def _cells(self):
        return self._projected_cells(self._project_child)

    def _project(self, within: int, contract: int, parent=None) -> dict:
        """Points of M/contract within `within`, keyed by normal form modulo
        span(contract) in order of least element (a column of form zero is
        a loop).  Given `parent`, the keyed points of M/(contract - e) in
        place of `within` and the key of e's class, the keys are refined
        from the parent's (`_project_child`)."""
        if parent:
            return self._project_child(*parent)
        basis = self._echelon(contract)
        if self._gf2:
            normal, args = self._reduce_gf2, (basis,)
        else:
            normal, args = self._normal_tables, (basis, self._pack.normals())
        out = {}
        for e, v in enumerate(self._vecs):
            if within >> e & 1:
                key = normal(v, *args)
                if key:
                    out[key] = out.get(key, 0) | 1 << e
        return out

    def _project_child(self, classes: dict, pivot: int) -> dict:
        """The keyed points of M/(C + e) from those of M/C, `classes`, and
        the key `pivot` of e's class.  Each key is zero at the pivots of
        span(C), so one reduction step against the row of `pivot` (from
        `_rows`), inlined here, leaves it zero at the pivots of span(C + e).
        Over GF(q), q > 2, a key also has 1 at its lowest nonzero coordinate
        and the row is zero below its pivot slot, so the key keeps that
        leading 1 unless it sat at the pivot slot; only then is it
        renormalized, by one lookup in `VectorPacking.normals` where the
        packing has that table.  A class that no other class joins is
        kept as the same int, so a child holds no copy of it."""
        out = {}
        if self._gf2:  # the step of `_reduce_gf2`
            for v, c in classes.items():
                w = v ^ pivot
                if w < v:
                    if not w:
                        continue
                    v = w
                got = out.get(v)
                out[v] = c if got is None else got | c
            return out
        pk = self._pack
        off, mults = self._rows.get(pivot) or self._row(pivot)
        mask, normals, rescale = pk.mask, pk.normals(), pk.chunk_normal
        below = (1 << off) - 1
        if pk.p == 2:  # the step of `_reduce_tables`
            for v, c in classes.items():
                d = v >> off & mask
                if d:
                    w = v ^ mults[d]
                    if not v & below:
                        if not w:
                            continue
                        w = normals[w] if normals else rescale(w)
                    v = w
                got = out.get(v)
                out[v] = c if got is None else got | c
            return out
        bias, guard, shift, p = pk.bias, pk.guard, pk.w - 1, pk.p
        for v, c in classes.items():
            d = v >> off & mask
            if d:  # `VectorPacking.add`, inlined
                s = v + mults[d]
                w = s - ((s + bias & guard) >> shift) * p
                if not v & below:
                    if not w:
                        continue
                    w = normals[w] if normals else rescale(w)
                v = w
            got = out.get(v)
            out[v] = c if got is None else got | c
        return out

    def __repr__(self):
        return f"LinearMatroid(GF({self.field.q}), {self.nrows}x{self.n})"


class ExplicitMatroid(Matroid):
    """Full rank table indexed by subset mask; the brute-force substrate.

    The rank axioms are verified at construction: exhaustively through the
    local exchange conditions for n <= 12, by seeded random sampling of the
    same conditions above that.
    """

    MAX_N = 20
    EXHAUSTIVE_N = 12

    def __init__(self, n: int, table, verify: bool = True):
        if n > self.MAX_N:
            raise SizeLimit(f"explicit tables are capped at {self.MAX_N} elements")
        self._init_ground(n)
        self.table = tuple(table)
        if len(self.table) != 1 << n:
            raise PreconditionFailed("rank table has wrong length")
        if verify:
            self._verify_axioms()

    def _verify_axioms(self):
        t = self.table
        n = self.n
        if t[0] != 0:
            raise PreconditionFailed("rank of the empty set is not 0")
        full = 1 << n
        if n <= self.EXHAUSTIVE_N:
            subsets = range(full)
        else:
            import random

            rng = random.Random(0xA5)
            subsets = (rng.randrange(full) for _ in range(10_000))
        for x in subsets:
            rx = t[x]
            if not 0 <= rx <= popcount(x):
                raise PreconditionFailed(f"rank out of bounds at 0x{x:x}")
            free = [e for e in range(n) if not x >> e & 1]
            for i, e in enumerate(free):
                re = t[x | 1 << e]
                if not rx <= re <= rx + 1:
                    raise PreconditionFailed(f"unit-increase fails at 0x{x:x}+{e}")
                for fz in free[i + 1:]:
                    if re + t[x | 1 << fz] < t[x | 1 << e | 1 << fz] + rx:
                        raise PreconditionFailed(
                            f"submodularity fails at 0x{x:x} with {e},{fz}")

    def _rank_impl(self, subset: int) -> int:
        return self.table[subset]

    @classmethod
    def from_matroid(cls, m: Matroid, verify: bool = False) -> "ExplicitMatroid":
        """Copy of `m` with elements renumbered 0..size-1 (live order)."""
        elems = list(bits(m.live))
        n = len(elems)
        if n > cls.MAX_N:
            raise SizeLimit(f"cannot tabulate {n} elements")
        table = [0] * (1 << n)
        for x in range(1, 1 << n):
            table[x] = m.rank(spread(x, elems))
        return cls(n, table, verify=verify)

    def __repr__(self):
        return f"ExplicitMatroid(n={self.n}, r={self.rank_full})"


class MinorView(Matroid):
    """M / contract \\ delete over the parent's index space.

    Nested views flatten, so contracting C1 and then C2 is literally the
    view with contract set C1 | C2; rank(X) = r_root(X | C) - r_root(C) and
    cl(X) = cl_root(X | C) - C - D, asked of the root only at the view's
    own elements (its `live`, or a caller's `within`), so a small view of
    a big root scans few columns.  r_root(C) is taken when a rank is
    first asked for, unless C is empty or the caller knows it:
    `rank_contract` is the rank of `contract` in `base` (the walk's
    depth).  Over a linear root a view without contraction reads the
    root's point classes, and a contraction projects its points modulo
    span(C) once (`LinearMatroid._project`, given `parent`).
    """

    def __init__(self, base: Matroid, contract: int, delete: int, parent=None,
                 rank_contract: int | None = None):
        if isinstance(base, MinorView):
            if rank_contract is not None:
                rank_contract += base._contract_rank()
            contract |= base.contracted
            delete |= base.deleted
            base = base.base
        self.base = base
        self.contracted = contract
        self.deleted = delete
        self._init_ground(base.n, base.live & ~contract & ~delete)
        self._rank_contract = rank_contract if contract else 0
        self._parent = parent

    def _contract_rank(self) -> int:
        if self._rank_contract is None:
            self._rank_contract = self.base._rank_impl(self.contracted)
        return self._rank_contract

    def _rank_impl(self, subset: int) -> int:
        return self.base._rank_impl(subset | self.contracted) - self._contract_rank()

    def _closure_impl(self, subset: int, within: int) -> int:
        # cl_{M/C}(X) = cl_M(X | C) - C; `within` holds no element of C or D
        return self.base._closure_impl(subset | self.contracted, within)

    def _extend_basis(self, base: int, scan: int, limit: int) -> int:
        return self.base._extend_basis(base | self.contracted, scan, limit)

    def _points_impl(self, within: int) -> list:
        if not isinstance(self.base, LinearMatroid):
            return super()._points_impl(within)
        if not self.contracted:
            return self.base._points_impl(within)
        return self._cut_points(within)

    def _keyed_points(self) -> dict:
        if self._keyed is None and isinstance(self.base, LinearMatroid):
            self._keyed = self.base._project(self.live, self.contracted, self._parent)
        return super()._keyed_points()

    def _cells(self):
        if isinstance(self.base, LinearMatroid):
            return self._projected_cells(self.base._project_child)
        return super()._cells()

    def __repr__(self):
        return (f"MinorView(base={self.base!r}, contract=0x{self.contracted:x}, "
                f"delete=0x{self.deleted:x})")


class DirectSum(Matroid):
    """Blocks laid out on consecutive index ranges; ranks add per block."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise PreconditionFailed("direct sum needs at least one component")
        self.components = components
        offsets = []
        live = 0
        n = 0
        for comp in components:
            offsets.append(n)
            live |= comp.live << n
            n += comp.n
        self.offsets = offsets
        self._init_ground(n, live)

    def _rank_impl(self, subset: int) -> int:
        total = 0
        for comp, off in zip(self.components, self.offsets):
            part = (subset >> off) & ((1 << comp.n) - 1)
            if part:
                total += comp._rank_impl(part)
        return total

    def block_mask(self, index: int) -> int:
        comp = self.components[index]
        return comp.live << self.offsets[index]

    def __repr__(self):
        return f"DirectSum({self.components!r})"


def contractions(matroid: Matroid, max_depth: int):
    """Yield (contract, closure, minor) in DFS preorder over contraction sets
    of point representatives up to `max_depth` deep (depth = rank = size):
    each flat of rank <= max_depth is reached once, through its greedy
    basis (the lex-first one, element by element).  The flats covering F
    are F | P for the points P of M/F, so a child's closure is its
    parent's plus one class, and its points are refined from its parent's
    when first asked for.  A node's children are built only when the
    caller resumes after it.

    No set of visited flats is kept: a node C = b1 < ... < bk is extended
    only by the classes P of M/cl(C) with min P > bk (reverse search with
    the greedy basis as canonical parent, Avis & Fukuda 1996).  If C is
    the greedy basis of F and min P > bk, the greedy basis of F | P is
    C + min P: every element of F | P below min P lies in F, where the
    greedy scan takes b1..bk, and min P is outside F.  Conversely, if
    b1 < ... < bk+1 is the greedy basis of F', dropping bk+1 leaves the
    greedy basis of F = cl(b1..bk), and bk+1 is the least element of its
    class of M/F, since every element of F' below bk+1 lies in F.
    So each flat has exactly one parent, the flat of its greedy basis
    minus its last element.  Children are pushed by least element, so
    preorder is lex order on the sorted contract sets; the greedy basis is
    the lex-least walk sequence of its flat, so its parent is expanded
    first, and a walk that marks flats as seen has the same tree and the
    same yield order."""
    stack = [(0, matroid.closure(0), 0, None)]  # (contract, closure, depth, parent)
    while stack:
        contract, closed, depth, parent = stack.pop()
        minor = MinorView(matroid, contract, 0, parent, depth)
        yield contract, closed, minor
        if depth < max_depth:
            keyed = minor._keyed_points()
            # a class's least element is above max(contract) iff its lowest
            # bit, a power of two, exceeds contract
            children = [(contract | low, closed | c, depth + 1, (keyed, key))
                        for key, c in keyed.items() if (low := c & -c) > contract]
            stack.extend(reversed(children))
