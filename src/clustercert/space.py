"""Exact data model for finite semimetric point sets.

A space stores its distances once: the sorted distinct values as
`fractions.Fraction` and one int rank per cell into them. Every threshold
comparison (short/medium/long pairs, cluster diameters, separation) bisects
once into the values and then compares ranks, so it is decided exactly.
``dist`` is a cached Fraction view of the table. Decimal text is the
canonical lossless input form; binary floats are converted bit-exactly, never
rounded through a repr round trip. A table is read straight to ranks: each
row becomes first-seen ids as it is read (strings keyed by text, other cells
by identity), each distinct cell is parsed once (a plain decimal such as 0.25
from its digits), one sort ranks the values, and rows are checked against columns.
Generated tables skip parsing: ``_grid_space`` ranks a symmetric int grid
through its sorted distinct ints and maps only those to Fractions.

A space carries the uniform counting measure: the measure of a point subset
is its cardinality. The triangle inequality is *not* required ("semimetric").
"""
from __future__ import annotations

import decimal
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import attrgetter

__all__ = [
    "SpaceFormatError",
    "Record",
    "ScaleParams",
    "FiniteSemimetricSpace",
    "as_fraction",
    "format_rational",
    "build_space",
    "subset_diameter",
    "set_distance",
    "load_space",
    "dump_space",
    "space_to_obj",
    "space_from_obj",
]

# At most 600 digits in all: under any limit Python sets on reading an int from text (>= 640).
_PLAIN_DECIMAL = re.compile(r"[0-9]{1,300}(?:\.[0-9]{1,300})?")
# Fraction computes 10**exponent before anything else, so a larger exponent is refused
# first. 4300 is Python's default digit limit for reading an int from text.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


class SpaceFormatError(ValueError):
    """A distance table or space file violates a structural invariant."""


def as_fraction(value) -> Fraction:
    """Convert a distance-like value to an exact ``Fraction``.

    Strings may be in decimal ("0.25") or ratio ("1/3") form and are parsed
    exactly. Floats are converted from their exact binary value, so text is
    the safe path for values like 0.1 that have no finite binary expansion.
    A decimal exponent beyond 4300 in magnitude is refused with ValueError.
    Booleans are not numbers here: they raise TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, decimal.Decimal):
        value = str(value)  # exact, and held to the same exponent rule
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and (len(exponent[1]) > _MAX_EXPONENT or abs(int(exponent[1])) > _MAX_EXPONENT):
            raise ValueError(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    if isinstance(value, float):
        try:
            return Fraction(value)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"not a finite number: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def format_rational(q: Fraction) -> str:
    """Render a Fraction losslessly: finite decimal when possible, else "p/q".

    The output always parses back to the same Fraction via
    :func:`as_fraction`, which keeps space files exact for denominators that
    are not powers of ten (e.g. distances produced by discretization).
    """
    num, den = (q if isinstance(q, Fraction) else Fraction(q)).as_integer_ratio()
    if den == 1:
        return str(num)
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    text = str(abs(num) * 10**digits // den).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def _positive_scale(r) -> Fraction:
    """The scale r as a Fraction; ValueError unless r > 0."""
    r = as_fraction(r)
    if r <= 0:
        raise ValueError(f"scale r must be positive, got {r}")
    return r


def _is_int(value) -> bool:
    """An int that is not a bool: JSON true and false are never counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_order(k) -> None:
    """ValueError unless the order k is an integer >= 1."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"order k must be a positive integer, got {k!r}")


class Record:
    """Frozen value record, the base of every record type of the package.

    The class annotations, in order and after those of a record base class,
    are the fields, and a class attribute named like a field is its default. Fields are passed by position or by
    keyword, then ``__post_init__`` runs; it may normalise a field with
    ``object.__setattr__``. Records compare and hash by type and field values
    and refuse assignment. They keep a ``__dict__``, so ``cached_property``
    works on them.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        cls._fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {**cls._defaults, **{key: vars(cls)[key] for key in own if key in vars(cls)}}
        cls._get = attrgetter(*cls._fields)  # called as self._get(self): not a method

    def __init__(self, *args, **kwargs):
        values = {**self._defaults, **dict(zip(self._fields, args)), **kwargs}
        if kwargs or len(values) != len(self._fields) or len(args) > len(self._fields):
            self._check(args, kwargs)
        self.__dict__.update(values)
        self.__post_init__()

    def _check(self, args, kwargs) -> None:
        """TypeError for surplus positional values or a repeated, unknown or missing field."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        for key in kwargs:
            if key in fields[: len(args)] or key not in fields:
                raise TypeError(f"{name}() got a repeated or unknown field {key!r}")
        for key in fields[len(args) :]:
            if key not in kwargs and key not in self._defaults:
                raise TypeError(f"{name}() is missing field {key!r}")

    def __post_init__(self):
        """Check or normalise the fields once they are set; a record may define it."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == other._get(other)

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({pairs})"

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {key!r}")


class ScaleParams(Record):
    """Scale r > 0 for edge classification and the structure order k >= 1."""

    r: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "r", _positive_scale(self.r))
        _positive_order(self.k)


# Translate tables from a class byte to "1" or "0": the rows of cut t keep classes 0..t.
_CLASS_BITS = [bytes(48 + (c <= t) for c in range(256)) for t in range(4)]


class _Scale(Record):
    """The threshold rows of one scale r: ``close`` is ``within(r, strict=True)``,
    ``near`` ``within(r)``, ``share`` ``within(2r)`` and ``reach`` ``within(3r)``."""

    close: tuple[int, ...]
    near: tuple[int, ...]
    share: tuple[int, ...]
    reach: tuple[int, ...]


class FiniteSemimetricSpace(Record):
    """Immutable point set with an exact symmetric distance table.

    ``values`` holds the sorted distinct distances and ``ranks`` one int per
    cell, an index into ``values``. Queries are pure; instances are safe to
    share across threads. Use :func:`build_space` rather than the constructor
    so the invariants (symmetry, zero diagonal, non-negativity) are checked.
    """

    labels: tuple[str, ...]
    values: tuple[Fraction, ...]
    ranks: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(len(self.labels))

    def rho(self, i: int, j: int) -> Fraction:
        return self.values[self.ranks[i][j]]

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance table: one shared Fraction per distinct value."""
        return tuple(tuple(map(self.values.__getitem__, row)) for row in self.ranks)

    def within(self, d, *, strict: bool = False) -> tuple[int, ...]:
        """Threshold graph at distance ``d`` as one bitmask per point.

        Bit q of row p is set iff rho(p, q) <= d, or rho(p, q) < d when
        ``strict`` is set. The rows are symmetric, and the diagonal bit is set
        whenever d >= 0 (d > 0 if strict). Every scale predicate of the
        library is a mask expression over these rows: short pairs and the
        greedy neighborhood are ``within(r)``, medium pairs
        ``within(3r) & ~within(r)``, long pairs ``~within(3r)``, far
        (anticlique) pairs ``~within(r)``, cluster mates ``within(2r)`` and
        separated pairs ``~within(r, strict=True)``.

        Built on each call; the rows at r, 2r and 3r are memoized in :meth:`_scale`.
        """
        return self._threshold_rows([(as_fraction(d), strict)])[0]

    def _scale(self, r) -> _Scale:
        """The ``within`` rows at r (strict and closed), 2r and 3r, memoized on the
        instance per (numerator, denominator) of r."""
        r, views = as_fraction(r), self._views
        key = r.numerator, r.denominator
        if key not in views:  # distances are non-negative, so the cuts ascend even for r <= 0
            views[key] = _Scale(*self._threshold_rows([(r, True), (r, False), (2 * r, False), (3 * r, False)]))
        return views[key]

    def _threshold_rows(self, thresholds) -> list[tuple[int, ...]]:
        """The ``within`` rows of each (d, strict) in ``thresholds``, whose cuts into
        ``values`` ascend. A row at a time, each cell gets a class byte, the number of
        cuts at or below its rank, and one translate per cut makes the row's bitmask;
        a row object that several points share is read once."""
        cuts = [(bisect_left if strict else bisect_right)(self.values, d) for d, strict in thresholds]
        byte = bytes(bisect_right(cuts, x) for x in range(len(self.values))).__getitem__
        done = {}
        for row in self.ranks:
            if id(row) not in done:
                line = bytes(map(byte, reversed(row)))  # bit q is the last-but-q byte
                done[id(row)] = [int(line.translate(table), 2) for table in _CLASS_BITS[: len(cuts)]]
        return list(zip(*[done[id(row)] for row in self.ranks])) or [()] * len(cuts)

    @cached_property
    def _views(self) -> dict:
        return {}

    def __hash__(self) -> int:
        # Equal spaces have equal ranks, so ``values`` can stay out of the hash.
        return hash((self.labels, self.ranks))


def _mask(points: Iterable[int]) -> int:
    """Bitmask with bit p set for each point p."""
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


def _labels(space: FiniteSemimetricSpace, points: Iterable[int]) -> tuple[str, ...]:
    """Labels of the points, in ascending index order."""
    return tuple(space.labels[i] for i in sorted(points))


def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_space(labels: Sequence[str], matrix: Sequence[Sequence]) -> FiniteSemimetricSpace:
    """Validate a label list and distance table into a space.

    Rejections name the offending cell: asymmetry, negative entries, nonzero
    diagonal, and ragged rows are all errors. The triangle inequality is not
    checked: semimetric inputs are legal.
    """
    labels = _checked_labels(labels)
    n = len(labels)
    if len(matrix) != n:
        raise SpaceFormatError(f"expected {n} matrix rows, got {len(matrix)}")
    # A string cell is keyed by its text, any other by id(); ``firsts`` keeps it alive.
    ids, firsts, rows = {}, {}, []
    for i, row in enumerate(matrix):
        entries = list(row)
        if len(entries) != n:
            _reject_cells(firsts, n)  # a bad cell in an earlier row comes first
            raise SpaceFormatError(f"ragged matrix: row {i} has {len(entries)} entries, expected {n}")
        keys = [v if v.__class__ is str else id(v) for v in entries]
        rows.append(list(map(ids.setdefault, keys, range(i * n, i * n + n))))
        firsts.update(zip(rows[-1], entries))
    return _ranked_space(labels, firsts, rows)


def _checked_labels(labels: Sequence) -> tuple[str, ...]:
    """The labels as strings; SpaceFormatError for an empty, spaced or repeated one."""
    labels = tuple(str(x) for x in labels)
    seen: set[str] = set()
    for idx, label in enumerate(labels):
        if not label or label.split() != [label]:
            raise SpaceFormatError(f"label {idx} is empty or contains whitespace: {label!r}")
        if label in seen:
            raise SpaceFormatError(f"duplicate label {label!r}")
        seen.add(label)
    return labels


def _parse_cell(cell) -> Fraction:
    """``as_fraction(cell)``; a plain ASCII decimal such as "12" or "0.25" is
    read straight from its digits into the Fraction its text denotes."""
    if cell.__class__ is not str or not _PLAIN_DECIMAL.fullmatch(cell):
        return as_fraction(cell)
    whole, _, frac = cell.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


def _reject_cells(firsts: dict, n: int) -> None:
    """Raise for the first bad or negative cell, row-major, of those in ``firsts``."""
    for first, cell in firsts.items():
        i, j = divmod(first, n)
        try:
            q = _parse_cell(cell)
        except (ValueError, TypeError) as exc:
            raise SpaceFormatError(f"bad distance at ({i},{j}): {exc}") from exc
        if q < 0:
            raise SpaceFormatError(f"negative entry at ({i},{j}): {format_rational(q)}")


def _ranked_space(labels, firsts: dict, rows: list) -> FiniteSemimetricSpace:
    """The space whose cell (i, j) is ``firsts[rows[i][j]]``; ``firsts`` maps the
    flat index i*n + j of each distinct cell's first occurrence to that cell."""
    n = len(labels)
    try:
        parsed = list(map(_parse_cell, firsts.values()))
    except (ValueError, TypeError):
        _reject_cells(firsts, n)  # names the first bad or negative cell
        raise
    # Merged by integer ratio, not the slower Fraction hash; int keys decide most comparisons.
    ratios = [q.as_integer_ratio() for q in parsed]
    values = tuple(sorted(dict(zip(ratios, parsed)).values(), key=lambda q: ((q.numerator << 64) // q.denominator, q)))
    place = {q.as_integer_ratio(): rank for rank, q in enumerate(values)}
    perm = dict(zip(firsts, map(place.__getitem__, ratios)))
    for i, row in enumerate(rows):  # in place: one table of ids or ranks at a time
        rows[i] = tuple(map(perm.__getitem__, row))
    if values and not values[0] and sum(row.count(0) for row in rows) > n:
        rows = list(map({}.setdefault, rows, rows))  # rows i and j can be equal only if rho(i, j) = 0
    return _checked_space(labels, values, tuple(rows))


def _grid_space(labels, grid, value) -> FiniteSemimetricSpace:
    """The space whose cell (i, j) is ``value(grid[i][j])``, for a square int
    table and an increasing ``value`` into Fractions. The distinct ints are sorted
    once, and a row object repeated in ``grid`` is ranked once, into one tuple."""
    labels = _checked_labels(labels)
    if any(len(row) != len(labels) for row in [grid, *grid]):
        raise SpaceFormatError(f"grid must be {len(labels)} by {len(labels)}")
    rows = {id(row): row for row in grid}
    distinct = sorted(set().union(*rows.values()))
    rank = dict(zip(distinct, range(len(distinct))))
    ranked = {key: tuple(map(rank.__getitem__, row)) for key, row in rows.items()}
    return _checked_space(labels, tuple(map(value, distinct)), tuple(ranked[id(row)] for row in grid))


def _checked_space(labels, values, ranks) -> FiniteSemimetricSpace:
    """The space of ``ranks`` into the sorted ``values``; SpaceFormatError for the
    first negative cell, else the first nonzero diagonal cell or asymmetric pair."""
    if values and values[0] < 0:
        i, j = next((i, j) for i, row in enumerate(ranks) for j, x in enumerate(row) if values[x] < 0)
        raise SpaceFormatError(f"negative entry at ({i},{j}): {format_rational(values[ranks[i][j]])}")
    # Symmetric iff each row equals its column; zip yields one column at a time.
    if any(values[row[i]] for i, row in enumerate(ranks)) or not all(map(tuple.__eq__, ranks, zip(*ranks))):
        for i, row in enumerate(ranks):
            if values[row[i]] != 0:
                raise SpaceFormatError(f"nonzero diagonal at ({i},{i}): {format_rational(values[row[i]])}")
            for j in range(i + 1, len(ranks)):
                if row[j] != ranks[j][i]:
                    raise SpaceFormatError(f"asymmetric at ({i},{j})")
    return FiniteSemimetricSpace(labels, values, ranks)


def subset_diameter(space: FiniteSemimetricSpace, points: Iterable[int]) -> Fraction:
    """Largest pairwise distance within the subset; 0 for empty or singleton
    subsets, so the empty set is a valid cluster at every scale."""
    pts = sorted(set(points))
    ranks = space.ranks
    best = max((ranks[a][b] for i, a in enumerate(pts) for b in pts[i + 1 :]), default=None)
    return Fraction(0) if best is None else space.values[best]


def set_distance(space: FiniteSemimetricSpace, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Minimum distance over pairs from a x b; 0 whenever the sets share a
    point. Empty operands are an error."""
    pa = sorted(set(a))
    pb = sorted(set(b))
    if not pa or not pb:
        raise ValueError("set distance is undefined for an empty set")
    return space.values[min(space.ranks[u][v] for u in pa for v in pb)]


# ---------------------------------------------------------------------------
# File format: line 1 = n, line 2 = labels, then n rows of distances.
# ---------------------------------------------------------------------------

def dump_space(space: FiniteSemimetricSpace) -> str:
    text = [format_rational(q) for q in space.values]  # indexed by rank
    lines = [str(space.n), " ".join(space.labels)]
    lines += (" ".join(map(text.__getitem__, row)) for row in space.ranks)
    return "\n".join(lines) + "\n"


def _parse_space_lines(text: str) -> tuple[FiniteSemimetricSpace, list[tuple[int, str]]]:
    """Parse the leading space block of ``text``; return it plus the remaining
    non-blank lines as (line number in the file, line) pairs. Each row becomes
    cell ids as it is read, so the n^2 tokens are never held at once."""
    lines = ((no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip())
    no, line = next(lines, (1, None))
    if line is None:
        raise SpaceFormatError("line 1: missing point count")
    try:
        n = int(line.strip())
    except ValueError as exc:
        raise SpaceFormatError(f"line {no}: point count is not an integer: {line!r}") from exc
    if n < 0:
        raise SpaceFormatError(f"line {no}: negative point count {n}")
    if n == 0:
        return build_space([], []), list(lines)
    no, line = next(lines, (no + 1, None))
    if line is None:
        raise SpaceFormatError(f"line {no}: missing label line")
    labels = line.split()
    if len(labels) != n:
        raise SpaceFormatError(f"line {no}: expected {n} labels, got {len(labels)}")
    table = list(islice(lines, n))
    if len(table) < n:
        raise SpaceFormatError(f"expected {n} distance rows, file ends after {len(table)}")
    ids: dict[str, int] = {}  # token -> flat index i*n + j of its first cell
    for i, (no, line) in enumerate(table):
        tokens = line.split()
        if len(tokens) != n:
            raise SpaceFormatError(f"line {no}: expected {n} distances, got {len(tokens)}")
        table[i] = list(map(ids.setdefault, tokens, range(i * n, i * n + n)))
    try:
        space = _ranked_space(_checked_labels(labels), dict(zip(ids.values(), ids)), table)
    except SpaceFormatError as exc:
        raise SpaceFormatError(f"distance table: {exc}") from exc
    return space, list(lines)


def load_space(text: str) -> FiniteSemimetricSpace:
    """Parse the text space format, rejecting trailing junk."""
    space, rest = _parse_space_lines(text)
    if rest:
        raise SpaceFormatError(f"unexpected trailing content: {rest[0][1]!r}")
    return space


def space_to_obj(space: FiniteSemimetricSpace) -> dict:
    """Structured-object form with distances as exact strings."""
    text = [format_rational(q) for q in space.values]
    return {
        "n": space.n,
        "labels": list(space.labels),
        "dist": [list(map(text.__getitem__, row)) for row in space.ranks],
    }


def space_from_obj(obj: dict) -> FiniteSemimetricSpace:
    """Parse the structured-object form. ``labels`` must be a list of strings,
    ``dist`` a list of lists and ``n``, when present, an integer: a JSON string
    is never read as a sequence of characters, nor another JSON value as a label."""
    try:
        labels = obj["labels"]
        dist = obj["dist"]
    except (KeyError, TypeError) as exc:
        raise SpaceFormatError(f"space object is missing field: {exc}") from exc
    if not isinstance(labels, list):
        raise SpaceFormatError(f"labels must be a list, got {type(labels).__name__}")
    for idx, label in enumerate(labels):
        if not isinstance(label, str):
            raise SpaceFormatError(f"label {idx} must be a string, got {type(label).__name__}")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise SpaceFormatError("dist must be a list of lists")
    declared = obj.get("n")
    if declared is not None and not _is_int(declared):
        raise SpaceFormatError(f"n must be an integer, got {type(declared).__name__}")
    space = build_space(labels, dist)
    if declared is not None and declared != space.n:
        raise SpaceFormatError(f"declared n={declared} but found {space.n} labels")
    return space
