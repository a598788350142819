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
from typing import Iterable, Iterator

from .errors import InputError

Letter = tuple[str, int]

# generator names: letters followed by optional digits ("a", "a0", "β2")
_NAME_RE = re.compile(r"[^\W\d_]+\d*\Z")
_TOKEN_RE = re.compile(r"([^\W\d_]+\d*)(\^-1|-)?\Z")


def is_generator_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


def check_generator_name(name: str) -> str:
    if not is_generator_name(name):
        raise InputError(f"invalid generator name {name!r} (want letters then optional digits)")
    return name


def generator_stem(name: str) -> str:
    """The alphabetic part of a generator name: stem of "a0" is "a"."""
    return name.rstrip("0123456789")


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
    def parse(cls, text: str) -> "Word":
        letters = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise InputError(f"cannot parse letter {token!r}")
            letters.append((m.group(1), -1 if m.group(2) else 1))
        return cls(letters)

    def __str__(self) -> str:
        return " ".join(format_letter(l) for l in self.letters)

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

    def is_reduced(self) -> bool:
        return len(self.free_reduce()) == len(self)

    def is_cyclically_reduced(self) -> bool:
        """No cancelling adjacent pair, including the wraparound pair."""
        n = len(self.letters)
        if n == 0:
            return True
        for i in range(n):
            g, s = self.letters[i]
            h, t = self.letters[(i + 1) % n]
            if g == h and s == -t:
                return False
        return True

    def support(self) -> set[str]:
        return {g for g, _ in self.letters}


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
