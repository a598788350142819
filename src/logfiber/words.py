"""Free-group words over a generator alphabet.

Letters are ``(generator, sign)`` pairs with sign +1 or -1.  Words are plain
immutable sequences: multiplication concatenates verbatim, and free reduction
is always an explicit operation, so square boundary words keep their written
corner structure until a caller asks for the reduced form.

Literal syntax (used in files, CLI flags and reports): letters separated by
whitespace, inverses marked by a ``^-1`` or ``-`` suffix.  Both suffixes are
accepted on input; output always uses ``^-1``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from itertools import repeat

from .errors import InputError

Letter = tuple[str, int]

# generator names: letters, then the ASCII digits `generator_stem` strips ("a", "a0", "β2")
_NAME_RE = re.compile(r"[^\W\d_]+[0-9]*\Z")
_TOKEN_RE = re.compile(r"([^\W\d_]+[0-9]*)(\^-1|-)?\Z")


def check_generator_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise InputError(f"invalid generator name {name!r} (want letters then optional digits)")
    return name


def check_generator_names(names: list[str], seen: set[str]) -> None:
    """Add ``names`` to ``seen``, refusing the first, in order, that is
    invalid or already seen; a valid list is checked in one pass of C loops."""
    fresh = set(names)
    if len(fresh) == len(names) and fresh.isdisjoint(seen) and all(map(_NAME_RE.match, names)):
        seen |= fresh
        return
    for g in names:
        check_generator_name(g)
        if g in seen:
            raise InputError(f"duplicate generator {g!r}")
        seen.add(g)


def generator_stem(name: str) -> str:
    """The alphabetic part of a generator name: stem of "a0" is "a"."""
    return name.rstrip("0123456789")


class LetterTable(dict):
    """Token -> letter, each distinct token matched once (``a-`` and ``a^-1`` give
    ``("a", -1)``); `parse_spec` keeps one per call, so nothing outlives a call."""

    def declare(self, names: list[str]) -> None:
        """Enter ``g`` and ``g^-1`` of each valid name ``g`` with no match."""
        self.update(zip(names, zip(names, repeat(1))))
        self.update(zip([g + "^-1" for g in names], zip(names, repeat(-1))))

    def __missing__(self, token: str) -> Letter:
        m = _TOKEN_RE.match(token)
        if m is None:
            raise InputError(f"cannot parse letter {token!r}")
        letter = self[token] = (m[1], -1 if m[2] else 1)  # m[2]: the inverse suffix, if any
        return letter


def inverse_letter(letter: Letter) -> Letter:
    g, s = letter
    return (g, -s)


def format_letter(letter: Letter) -> str:
    g, s = letter
    return g if s > 0 else f"{g}^-1"


class Word:
    """A word in a free group: a finite sequence of signed letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple((g, s) for g, s in letters)
        for g, s in letters:
            if s not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {s!r} on {g!r}")
        self.letters = letters

    @classmethod
    def _of(cls, letters: tuple[Letter, ...]) -> "Word":
        """A word on a tuple of letters that are already valid, such as the
        letters of existing words: skips `__init__`'s checks."""
        word = object.__new__(cls)
        word.letters = letters
        return word

    @classmethod
    def parse(cls, text: str, letters: LetterTable | None = None) -> "Word":
        lookup = (LetterTable() if letters is None else letters).__getitem__
        return cls._of(tuple(map(lookup, text.split())))

    def __str__(self) -> str:
        return " ".join(map(format_letter, self.letters))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        # concatenation only; reduction stays explicit
        return Word._of(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word._of(tuple((g, -s) for g, s in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        stack: list[Letter] = []
        for g, s in self.letters:
            if stack and stack[-1][0] == g and stack[-1][1] == -s:
                stack.pop()
            else:
                stack.append((g, s))
        return Word._of(tuple(stack))

    def is_cyclically_reduced(self) -> bool:
        """No cancelling adjacent pair, including the wraparound pair."""
        letters = self.letters
        h, t = letters[-1] if letters else (None, 0)
        for g, s in letters:
            if g == h and s == -t:
                return False
            h, t = g, s
        return True

    def support(self) -> set[str]:
        return {g for g, _ in self.letters}


def join_reduced(pieces: Iterable[tuple[Letter, ...] | list[Letter]]) -> Word:
    """The free reduction of the concatenation of ``pieces``, each already reduced:
    letters cancel only where a piece meets what is left of those before it."""
    out: list[Letter] = []
    for piece in pieces:
        i = 0
        while out and i < len(piece) and out[-1] == (piece[i][0], -piece[i][1]):
            out.pop()
            i += 1
        out += piece[i:]
    return Word._of(tuple(out))


def signed_weight(word: Word, weights: dict[str, int]) -> int:
    """Sum of sign * weight over the letters of ``word``.

    Additive under concatenation and invariant under free reduction.
    """
    total = 0
    for g, s in word:
        if g not in weights:
            raise InputError(f"generator {g!r} has no assigned weight")
        total += s * weights[g]
    return total
