"""Domain types for shifted 3-generated numerical semigroups.

A family is a triple of positive offsets (a, b, d) with gcd(a, b) = 1; its
member at shift t is the numerical semigroup generated by

    (t - d*a,  t,  t + d*b).

Trades are integer 3-vectors in the kernel of the generator pairing.  They
are classified by sign orthant (exactly two coordinates share a sign).
Everything in this module is an immutable value and every operation is a
pure function, so instances can be shared freely between workers.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

Trade = tuple[int, int, int]

# Shifts above this are rejected up front as outside the supported range.
# All arithmetic is exact Python integers, so this is a scope limit, not an
# overflow guard; the shift engine's answer still grows linearly in t.
MAX_SHIFT = 10**9


class InvalidInputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class OutsideScopeError(InvalidInputError):
    """Structurally valid input outside the supported theory (gcd(t, d) != 1)."""


class NoLengthTradeError(InvalidInputError):
    """No trade of the requested coordinate sum exists at this shift."""


class InternalConsistencyError(RuntimeError):
    """A certified invariant failed; the computation cannot be trusted."""


def length(v: Trade) -> int:
    """Coordinate sum of a vector (trades of length 0 are homogeneous)."""
    return v[0] + v[1] + v[2]


def negate(v: Trade) -> Trade:
    return (-v[0], -v[1], -v[2])


def add(u: Trade, v: Trade) -> Trade:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def sub(u: Trade, v: Trade) -> Trade:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def scale(k: int, v: Trade) -> Trade:
    return (k * v[0], k * v[1], k * v[2])


def canonical_rep(v: Trade) -> Trade:
    """Pick one of {v, -v}: the one whose last nonzero coordinate is positive.

    Idempotent, and canonical_rep(v) == canonical_rep(-v).  This matches the
    usual one-column-per-sign-pair listing convention for Graver matrices.
    """
    x = v[2] or v[1] or v[0]  # the last nonzero coordinate, if any
    if x > 0:
        return v
    if x < 0:
        return negate(v)
    raise InvalidInputError("the zero vector has no canonical representative")


# Total order used for all serialized listings: lexicographic (v2, v1, v0).
# An itemgetter computes the key in C, which matters for sorting whole bases.
sort_key = operator.itemgetter(2, 1, 0)


@dataclass(frozen=True)
class ShiftedFamily:
    """Fixed offsets (a, b, d) defining the family t -> <t - d*a, t, t + d*b>."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
        if math.gcd(self.a, self.b) != 1:
            raise InvalidInputError(f"a={self.a} and b={self.b} must be coprime")

    @property
    def rho(self) -> int:
        """Period of the shift recursion: d*a*b*(a+b)."""
        return self.d * self.a * self.b * (self.a + self.b)

    @property
    def homogeneous_trade(self) -> Trade:
        """Primitive trade of length 0, shared by every member of the family."""
        return (self.b, -(self.a + self.b), self.a)

    @property
    def b_plus(self) -> int:
        """PPN transport threshold: above it the orthant has a trade of coordinate sum d."""
        a, b, d = self.a, self.b, self.d
        return (b - 1) * (a + b) - b * (d + 1)

    @property
    def b_plus_minus(self) -> int:
        """PNP transport threshold: d*a*b."""
        return self.d * self.a * self.b

    @property
    def b_minus(self) -> int:
        """NPP transport threshold: above it the orthant has a trade of coordinate sum -d."""
        a, b, d = self.a, self.b, self.d
        # NPP segment endpoints exist iff t - d*a is representable by
        # <a, a+b>, which holds for every t above the Frobenius number
        # a(a+b) - a - (a+b) plus d*a
        return (a - 1) * (a + b) + a * (d - 1)

    @property
    def b_max(self) -> int:
        """Largest of the three orthant thresholds; shifts up to it are base cases."""
        return max(self.b_plus, self.b_plus_minus, self.b_minus)

    def instance(self, t: int) -> SemigroupInstance:
        return SemigroupInstance(self, t)


@dataclass(frozen=True)
class SemigroupInstance:
    """One member of a shifted family: the semigroup <t - d*a, t, t + d*b>."""

    family: ShiftedFamily
    t: int

    def __post_init__(self) -> None:
        fam = self.family
        if not isinstance(self.t, int):
            raise InvalidInputError(f"shift must be an integer, got {self.t!r}")
        if self.t <= fam.d * fam.a:
            raise InvalidInputError(
                f"shift t={self.t} must exceed d*a={fam.d * fam.a} so the smallest generator is positive"
            )
        if self.t > MAX_SHIFT:
            raise InvalidInputError(f"shift t={self.t} exceeds the supported bound {MAX_SHIFT}")
        if math.gcd(self.t, fam.d) != 1:
            raise OutsideScopeError(
                f"gcd(t, d) = gcd({self.t}, {fam.d}) != 1: this shift is outside the supported family"
            )

    @property
    def generators(self) -> Trade:
        fam = self.family
        return (self.t - fam.d * fam.a, self.t, self.t + fam.d * fam.b)

    def evaluate(self, v: Trade) -> int:
        """Generator pairing n1*v0 + n2*v1 + n3*v2; trades are its kernel."""
        n1, n2, n3 = self.generators
        return n1 * v[0] + n2 * v[1] + n3 * v[2]

    def shifted(self, periods: int = 1) -> SemigroupInstance:
        """The instance `periods` periods later (or earlier, if negative)."""
        return SemigroupInstance(self.family, self.t + periods * self.family.rho)


def from_generators(n1: int, n2: int, n3: int) -> SemigroupInstance:
    """Recover (a, b, d, t) from explicit generators 0 < n1 < n2 < n3."""
    for n in (n1, n2, n3):
        if not isinstance(n, int) or n < 1:
            raise InvalidInputError(f"generators must be positive integers, got {(n1, n2, n3)}")
    if not n1 < n2 < n3:
        raise InvalidInputError(f"generators must be strictly increasing, got {(n1, n2, n3)}")
    d = math.gcd(n2 - n1, n3 - n2)
    a = (n2 - n1) // d
    b = (n3 - n2) // d
    inst = ShiftedFamily(a, b, d).instance(n2)
    if inst.generators != (n1, n2, n3):
        raise InternalConsistencyError(f"generator round-trip failed for {(n1, n2, n3)}")
    return inst


class OrthantLabel(enum.Enum):
    """The three sign orthants a nonzero trade can occupy (up to negation).

    The letters give the sign pattern of the coordinates; membership only
    constrains the two coordinates that share a sign (the third is forced
    for genuine trades since the generators are positive).
    """

    PNP = "pnp"
    PPN = "ppn"
    NPP = "npp"

    # each label is a singleton compared by identity, so it hashes by
    # identity too, in C: every cache and table keyed by a label hashes it
    __hash__ = object.__hash__

    @property
    def nonneg_coords(self) -> tuple[int, int]:
        return _NONNEG[self]


_NONNEG = {
    OrthantLabel.PNP: (0, 2),
    OrthantLabel.PPN: (0, 1),
    OrthantLabel.NPP: (1, 2),
}


class TradeSetMode(enum.Enum):
    FULL = "full"
    CANONICAL = "canonical"


@dataclass(frozen=True, init=False)
class SegmentEndpoints:
    """An arithmetic run of trades: start, start+step, ..., end, where end
    is count-1 steps on, computed once here from the other three.

    The step's entries must be nonzero, so each coordinate of the run is a
    range, and step[2] must be positive, so the members ascend in sort_key
    order; every run the program builds steps by the homogeneous trade
    (b, -(a+b), a).  A run is a sequence of its members, indexed
    arithmetically, so bisect finds a member's place without writing the
    run out.
    """

    start: Trade
    end: Trade
    step: Trade
    count: int

    def __init__(self, start: Trade, step: Trade, count: int) -> None:
        if count < 1:
            raise InternalConsistencyError(f"segment count must be >= 1, got {count}")
        h0, h1, h2 = step
        if not (h0 and h1 and h2 > 0):
            raise InternalConsistencyError(
                f"segment step {step} needs nonzero entries and step[2] > 0"
            )
        n = count - 1
        end = (start[0] + n * h0, start[1] + n * h1, start[2] + n * h2)
        # frozen, so the fields go into the instance dict directly: the
        # generated __init__'s object.__setattr__ per field and __post_init__
        # call cost three times as much, and the count path builds a run per
        # segment solve
        self.__dict__.update(start=start, end=end, step=step, count=count)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> Trade:
        if not 0 <= k < self.count:
            raise IndexError(f"run index {k} outside 0..{self.count - 1}")
        return add(self.start, scale(k, self.step))

    def __iter__(self) -> Iterator[Trade]:
        """The members, zipped from the three coordinate ranges."""
        return zip(*(range(s, s + self.count * h, h) for s, h in zip(self.start, self.step)))

    def __contains__(self, v: object) -> bool:
        """By arithmetic: v is start + k*step for the k that v[2] gives,
        if that k is a whole number in 0..count-1 (step[2] > 0)."""
        if not (isinstance(v, tuple) and len(v) == 3):
            return False
        k, r = divmod(v[2] - self.start[2], self.step[2])
        return r == 0 and 0 <= k < self.count and self[k] == v

    def part(self, lo: int, hi: int) -> SegmentEndpoints:
        """Members lo..hi-1, as a run; needs 0 <= lo < hi <= count."""
        return SegmentEndpoints(self[lo], self.step, hi - lo)

    def negated(self) -> SegmentEndpoints:
        """The negations of the members, in the same order as sort_key:
        -end, -end+step, ..., -start, so the step is unchanged."""
        return SegmentEndpoints(negate(self.end), self.step, self.count)


Piece = Trade | SegmentEndpoints


def _members(piece: Piece) -> Iterable[Trade]:
    return piece if isinstance(piece, SegmentEndpoints) else (piece,)


def _ascending(keys: list) -> bool:
    return all(map(operator.lt, keys, keys[1:]))


def _ordered_pieces(
    runs: tuple[SegmentEndpoints, ...], singles: Iterable[Trade]
) -> tuple[Piece, ...]:
    """The runs laid end to end with the single trades inserted in sort_key
    order, as ordered pieces (parts of runs and single trades): nothing is
    written out.

    The runs' ends, in order, must ascend strictly, which covers each
    run's direction and every seam between runs; the singles must be
    distinct, and each that falls in a run's span goes in by bisect over
    the run's arithmetic members and must land strictly between two of
    them.  Any other input raises InternalConsistencyError.  The cost is a
    sort of the singles, a step per run, and a bisect of a run for each
    single inside its span.
    """
    # a one-member run has one end
    ends = [v for run in runs for v in dict.fromkeys((run.start, run.end))]
    if not _ascending(list(map(sort_key, ends))):
        raise InternalConsistencyError(f"runs out of order: ends {ends}")
    members = sorted(singles, key=sort_key)
    keys = list(map(sort_key, members))
    if not _ascending(keys):
        raise InternalConsistencyError("a single trade is given twice")
    pieces: list[Piece] = []
    j = 0  # members[j:] are not laid yet
    for run in runs:
        first = bisect_left(keys, sort_key(run.start), j)
        past = bisect_right(keys, sort_key(run.end), first)
        pieces += members[j:first]
        lo = 0  # the run from its member lo on is not laid yet
        for v, key in zip(members[first:past], keys[first:past]):
            k = bisect_left(run, key, lo, key=sort_key)
            if run[k] == v:
                raise InternalConsistencyError(f"{v} is not strictly between its neighbours")
            if k > lo:
                pieces.append(run.part(lo, k))
            pieces.append(v)
            lo = k
        pieces.append(run.part(lo, run.count))
        j = past
    pieces += members[j:]
    return tuple(pieces)


@dataclass(frozen=True, eq=False)
class TradeSet:
    """A deduplicated, deterministically ordered collection of trades.

    FULL mode stores vectors exactly as produced (e.g. an orthant's Hilbert
    basis in its positive orientation, or a negation-closed enumeration);
    CANONICAL mode keeps one representative per {v, -v} pair.  Ordering is
    always ascending lexicographic on (v2, v1, v0).

    The members are `singles`, single trades in any order, and `runs`,
    SegmentEndpoints runs given in ascending order, so a tuple of trades
    is a TradeSet of singles and a transported basis of 10^9 members is a
    few singles and a run.  len, membership and with_negations read the
    two fields, so counting orders nothing.  `pieces`, the members in
    order as single trades and parts of runs, is built and checked on
    first read (_ordered_pieces); iteration and equality read it, and
    `trades` writes the members out on first read.
    """

    singles: tuple[Trade, ...]
    mode: TradeSetMode
    runs: tuple[SegmentEndpoints, ...] = ()

    @staticmethod
    def canonical(trades: Iterable[Trade]) -> TradeSet:
        return TradeSet(tuple({canonical_rep(v) for v in trades}), TradeSetMode.CANONICAL)

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        return _ordered_pieces(self.runs, self.singles)

    @cached_property
    def trades(self) -> tuple[Trade, ...]:
        """Every member, written out on first read; without runs the
        pieces are the listing."""
        return tuple(self) if self.runs else self.pieces

    def with_negations(self) -> TradeSet:
        """Every member and its negation: a canonical member sorts above
        (0, 0, 0) and its negation below, so negating the ascending runs
        reversed keeps them ascending."""
        if self.mode is not TradeSetMode.CANONICAL:
            raise InvalidInputError("with_negations needs a canonical TradeSet")
        negated = (run.negated() for run in reversed(self.runs))
        return TradeSet(
            (*map(negate, self.singles), *self.singles), TradeSetMode.FULL, (*negated, *self.runs)
        )

    def __len__(self) -> int:
        return len(self.singles) + sum(run.count for run in self.runs)

    def __iter__(self) -> Iterator[Trade]:
        return chain.from_iterable(map(_members, self.pieces))

    def __contains__(self, v: object) -> bool:
        """By the fields, so no run is written out or ordered."""
        return v in self.singles or any(v in run for run in self.runs)

    def __eq__(self, other: object) -> bool:
        """Member-wise: the same mode and the same members in order,
        however they are split into pieces."""
        if not isinstance(other, TradeSet):
            return NotImplemented
        return (
            self.mode is other.mode
            and len(self) == len(other)
            and all(map(operator.eq, self, other))
        )
