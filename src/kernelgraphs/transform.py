"""Total maps on a finite point set, and the partitions they induce.

Points are 0-based everywhere in code; the bracket text format ``[3,3,4,3]``
and the block format ``{{1,2,4},{3}}`` are 1-based, matching the usual
combinatorics notation. All parsing/formatting goes through these two formats.

Composition convention (used consistently across the package): ``f * g`` means
"apply f first, then g", i.e. ``(f * g)(x) = g(f(x))``. This is the right
action that makes products of generator words read left to right.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import ParseError

__all__ = [
    "Transformation",
    "Partition",
    "compose",
    "kernel_of_images",
    "parse_transformation_lines",
]


class Transformation:
    """A total map {0..n-1} -> {0..n-1} stored as an image tuple.

    ``Transformation((2, 2, 3, 2))`` is the map written ``[3,3,4,3]`` in
    1-based notation: point 1 goes to 3, point 3 goes to 4, and so on.
    Immutable and hashable.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        img = tuple(int(x) for x in images)
        n = len(img)
        if n == 0:
            raise ValueError("transformation on an empty point set")
        for x in img:
            if not 0 <= x < n:
                raise ValueError(f"image value {x} outside 0..{n - 1}")
        object.__setattr__(self, "images", img)

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "Transformation":
        """Wrap an image tuple that is valid by construction, unchecked."""
        t = object.__new__(cls)
        object.__setattr__(t, "images", images)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Transformation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(n))

    @classmethod
    def parse(cls, text: str, *, line: int | None = None) -> "Transformation":
        """Parse the 1-based bracket format ``[3,3,4,3]``."""
        s = text.strip()
        lead = len(text) - len(text.lstrip())
        if not (s.startswith("[") and s.endswith("]")):
            col = lead + (1 if not s.startswith("[") else len(s))
            raise ParseError(f"expected bracketed image list, got {text!r}", line=line, column=col)
        body = s[1:-1]
        if not body.strip():
            raise ParseError("empty image list", line=line, column=lead + 2)
        parts = body.split(",")
        n = len(parts)
        images = []
        start = lead + 1  # index in text of the entry
        for part in parts:
            p = part.strip()
            # the entry's first non-blank character, or the delimiter ending it
            col = start + len(part) - len(part.lstrip()) + 1
            if not p.isdigit():
                raise ParseError(f"bad image entry {p!r}", line=line, column=col)
            x = int(p)
            if not 1 <= x <= n:
                raise ParseError(f"image value {x} outside 1..{n}", line=line, column=col)
            images.append(x - 1)
            start += len(part) + 1
        return cls(images)

    def __str__(self) -> str:
        return "[" + ",".join(str(x + 1) for x in self.images) + "]"

    def __repr__(self) -> str:
        return f"Transformation.parse({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Transformation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Transformation") -> "Transformation":
        """self first, then other."""
        return compose(self, other)

    @property
    def rank(self) -> int:
        return len(set(self.images))

    @property
    def image_set(self) -> frozenset[int]:
        return frozenset(self.images)

    def is_idempotent(self) -> bool:
        img = self.images
        return all(img[x] == x for x in set(img))

    def kernel(self) -> "Partition":
        """Partition of the points into preimage classes."""
        return Partition(kernel_of_images(self.images), n=self.n)

    def power(self, k: int) -> "Transformation":
        if k < 1:
            raise ValueError("power requires k >= 1")
        images = result = self.images
        for _ in range(k - 1):
            result = _mul(result, images)
        return Transformation._of(result)


def _mul(a, b):
    """The image tuple of "apply a, then b", for image tuples on one point set.

    itemgetter of one index returns a bare item, not a tuple, but the one
    map of degree <= 1 is the identity.
    """
    return itemgetter(*a)(b) if len(a) > 1 else a


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Apply f first, then g."""
    if f.n != g.n:
        raise ValueError(f"point-set mismatch: {f.n} vs {g.n}")
    return Transformation._of(_mul(f.images, g.images))


def kernel_of_images(images) -> list[tuple[int, ...]]:
    """Preimage blocks of an image tuple, each sorted, ordered by least element."""
    buckets: dict[int, list[int]] = {}
    for point, value in enumerate(images):
        buckets.setdefault(value, []).append(point)
    blocks = [tuple(b) for b in buckets.values()]
    blocks.sort(key=lambda b: b[0])
    return blocks


class Partition:
    """A partition of {0..n-1} into disjoint nonempty blocks.

    Blocks are stored sorted internally and ordered by least element, so equal
    partitions compare and hash equal regardless of input order.
    """

    __slots__ = ("blocks", "_block_of")

    def __init__(self, blocks, n: int | None = None):
        seen: set[int] = set()
        normalized = []
        for block in blocks:
            b = tuple(sorted(int(x) for x in block))
            if not b:
                raise ValueError("empty block")
            for x in b:
                if x in seen:
                    raise ValueError(f"point {x + 1} appears in two blocks")
                seen.add(x)
            normalized.append(b)
        normalized.sort(key=lambda b: b[0])
        size = len(seen)
        if n is None:
            n = size
        if seen != set(range(n)):
            missing = [x + 1 for x in sorted(set(range(n)) - seen)]
            raise ValueError(f"blocks do not cover 1..{n} (missing {missing})")
        object.__setattr__(self, "blocks", tuple(normalized))
        block_of = [0] * n
        for i, b in enumerate(normalized):
            for x in b:
                block_of[x] = i
        object.__setattr__(self, "_block_of", tuple(block_of))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def n(self) -> int:
        return len(self._block_of)

    @classmethod
    def parse(cls, text: str, *, line: int | None = None) -> "Partition":
        """Parse the 1-based block format ``{{1,2,4},{3}}``."""
        s = text.strip()
        lead = len(text) - len(text.lstrip())
        if not (s.startswith("{{") and s.endswith("}}")):
            # the first of the four delimiters that is missing
            at = next((i for i in range(2) if s[i : i + 1] != "{"), len(s) - 1)
            raise ParseError(
                f"expected double-braced block list, got {text!r}", line=line, column=lead + at + 1
            )
        body = s[1:-1]
        col = lead + 2  # column of body[0]
        blocks: list[list[int]] = []
        i = 0
        while True:
            if body[i] != "{":
                raise ParseError(f"unexpected character {body[i]!r}", line=line, column=col + i)
            stop = body.find("}", i)  # found: body ends with "}"
            block = []
            start = i + 1  # index in body of the entry
            for part in body[start:stop].split(","):
                if not part.strip().isdigit():
                    # the entry's first non-blank character, or the delimiter ending it
                    at = col + start + len(part) - len(part.lstrip())
                    raise ParseError(f"bad block entry {part.strip()!r}", line=line, column=at)
                block.append(int(part) - 1)
                start += len(part) + 1
            blocks.append(block)
            i = stop + 1
            if i == len(body):
                break
            if body[i] != ",":
                raise ParseError(
                    f"expected ',' between blocks, got {body[i]!r}", line=line, column=col + i
                )
            i += 1
        try:
            return cls(blocks)
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from exc

    def __str__(self) -> str:
        inner = ",".join("{" + ",".join(str(x + 1) for x in b) + "}" for b in self.blocks)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Partition.parse({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def block_containing(self, point: int) -> tuple[int, ...]:
        return self.blocks[self._block_of[point]]

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.n != other.n:
            raise ValueError("partitions of different point sets")
        return all(set(b) <= set(other.block_containing(b[0])) for b in self.blocks)

    def as_transformation(self) -> Transformation:
        """Idempotent collapsing each block to its least element.

        Its kernel is this partition; useful for realizing partitions as maps.
        """
        images = [0] * self.n
        for b in self.blocks:
            for x in b:
                images[x] = b[0]
        return Transformation(images)


def parse_transformation_lines(lines) -> list[Transformation]:
    """Parse one bracket-format transformation per nonempty line.

    Lines starting with ``#`` are comments. All maps must share a point count.
    """
    result: list[Transformation] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\r\n")  # columns count from the line start
        s = text.strip()
        if not s or s.startswith("#"):
            continue
        t = Transformation.parse(text, line=lineno)
        if result and t.n != result[0].n:
            raise ParseError(
                f"point-set mismatch: {t.n} points here, {result[0].n} before", line=lineno
            )
        result.append(t)
    return result
