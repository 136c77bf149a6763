"""Integer symbol codes, registries, strings and substitutions for every backend.

A pattern is a sequence of *constants* and *variables*; a text contains
constants only.  A substitution maps variables to constants; applying it to
the pattern yields a plain constant string that can be compared against a
text window.  Two matching modes exist:

* ``fvc`` -- any function from variables to constants is admissible,
* ``pvc`` -- the function must additionally be injective (distinct
  variables receive distinct constants).

Constants and variables live in two disjoint, append-only registries that
assign dense integer ids in first-appearance order.  All iteration orders
downstream follow registration order, which keeps outputs deterministic.
Patterns and texts store flat integer codes, the only representation of a
symbol: a constant's id (>= 0), or ``-1 - id`` for a variable.  Registry
keys are bytes, so there are at most 256 constants: a pattern's codes are a
tuple, and a text's are ``bytes``, one byte per id.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

ASCII_UPPERCASE = frozenset(range(ord("A"), ord("Z") + 1))

MODES = ("fvc", "pvc")

_BYTE_IDS = bytes(range(256))


class Record:
    """Equality and repr over the attributes named in ``_fields``, as a
    dataclass has them.  The search path builds its records on this rather
    than on ``dataclasses``, whose import loads ``inspect`` and costs a
    ``vcmatch find`` process milliseconds of start-up."""

    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _cached:
    """An attribute computed on its first read and stored on the instance,
    where later reads find it before this non-data descriptor.  As
    ``functools.cached_property``, without the lock that one takes on each
    first read before CPython 3.12 (0.69 against 0.32 us on 3.11)."""

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class InvalidInputError(ValueError):
    """Raw input cannot be turned into a valid pattern or text."""


def is_injective_mode(mode: str) -> bool:
    """Map a mode name to the injectivity flag, rejecting unknown modes."""
    if mode == "fvc":
        return False
    if mode == "pvc":
        return True
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


class SymbolTable:
    """Append-only byte registries for constants and variables.

    Ids are dense and assigned in first-appearance order; the constant and
    variable registries are disjoint, so the same raw byte may name a
    pattern variable and a text constant without ambiguity.

    Texts are encoded with one ``bytes.translate`` through a 256-byte table
    of constant ids, rebuilt only after a constant has been interned.
    """

    def __init__(self) -> None:
        self._constant_ids: dict[int, int] = {}
        self._variable_ids: dict[int, int] = {}
        self.constant_bytes: list[int] = []
        self.variable_bytes: list[int] = []
        self._translation: tuple[bytes, bytes] | None = None  # (table, known bytes)

    @property
    def num_constants(self) -> int:
        return len(self.constant_bytes)

    @property
    def num_variables(self) -> int:
        return len(self.variable_bytes)

    def intern_constant(self, byte: int) -> int:
        ident = self._constant_ids.get(byte)
        if ident is None:
            if not 0 <= byte <= 255:
                raise InvalidInputError(f"constant key {byte!r} is not a byte (0..255)")
            ident = len(self.constant_bytes)
            self._constant_ids[byte] = ident
            self.constant_bytes.append(byte)
            self._translation = None
        return ident

    def intern_variable(self, byte: int) -> int:
        ident = self._variable_ids.get(byte)
        if ident is None:
            if not 0 <= byte <= 255:
                raise InvalidInputError(f"variable key {byte!r} is not a byte (0..255)")
            ident = len(self.variable_bytes)
            self._variable_ids[byte] = ident
            self.variable_bytes.append(byte)
        return ident

    def encode_text(self, raw: bytes) -> bytes:
        """Constant codes of a raw text, one byte per id, interning its
        unseen bytes first (in first-appearance order)."""
        unseen = raw.translate(None, self._byte_translation()[1])
        # The byte values left after deleting those the remainder lacks are
        # its distinct bytes, found in C at any length.
        fresh = _BYTE_IDS.translate(None, _BYTE_IDS.translate(None, unseen))
        for byte in sorted(fresh, key=unseen.find):
            self.intern_constant(byte)
        return raw.translate(self._byte_translation()[0])

    def _byte_translation(self) -> tuple[bytes, bytes]:
        """The byte -> constant id translate table, and the bytes it maps."""
        if self._translation is None:
            known = bytes(self.constant_bytes)
            # Bytes outside ``known`` map to themselves; encode_text interns
            # them before it translates.
            self._translation = (bytes.maketrans(known, _BYTE_IDS[: len(known)]), known)
        return self._translation


def normalize_charset(variable_charset=None) -> frozenset[int]:
    """Canonicalize a variable charset given as str, bytes, or ints.

    A str charset must be ASCII: a wider character is several bytes, and
    each would become a variable of its own.
    """
    if variable_charset is None:
        return ASCII_UPPERCASE
    if isinstance(variable_charset, str):
        if not variable_charset.isascii():
            raise InvalidInputError(
                f"variable charset {variable_charset!r} is not ASCII; pass its bytes instead"
            )
        raw: Iterable[int] = variable_charset.encode()
    else:
        raw = variable_charset
    values = frozenset(int(b) for b in raw)
    if any(not 0 <= v <= 255 for v in values):
        raise InvalidInputError("variable charset entries must be bytes (0..255)")
    return values


class PatternString(Record):
    """A non-empty sequence of constants and variables plus derived indexes.

    ``codes`` holds a constant's id (>= 0) or ``-1 - id`` for a variable.
    """

    _fields = ("codes", "table")

    def __init__(self, codes: tuple[int, ...], table: SymbolTable) -> None:
        if not codes:
            raise InvalidInputError("pattern must be non-empty")
        for code in (min(codes), max(codes)):
            if not -table.num_variables <= code < table.num_constants:
                raise InvalidInputError(f"code {code} out of registry range")
        self.codes = codes
        self.table = table

    @classmethod
    def _encoded(cls, codes: tuple[int, ...], table: SymbolTable) -> PatternString:
        """A pattern from :func:`encode_pattern`, whose codes are valid by
        construction, so the checks of ``__init__`` are skipped."""
        pattern = object.__new__(cls)
        pattern.codes = codes
        pattern.table = table
        return pattern

    def __len__(self) -> int:
        return len(self.codes)

    @_cached
    def variables(self) -> tuple[int, ...]:
        """Ids of the distinct variables in the pattern, ascending."""
        return tuple(sorted({-1 - c for c in self.codes if c < 0}))

    @_cached
    def constants(self) -> tuple[int, ...]:
        """Ids of the distinct constants in the pattern, ascending."""
        return tuple(sorted({c for c in self.codes if c >= 0}))

    @_cached
    def first_occurrences(self) -> tuple[tuple[int, int], ...]:
        """(variable id, 0-based position of its first occurrence) pairs, in
        first-appearance order; a matching window binds each variable to the
        text symbol under its first occurrence."""
        return self.index_prefixes()[1]

    @_cached
    def variables_by_prefix(self) -> tuple[tuple[int, ...], ...]:
        """For each prefix length j, the distinct variable ids in the first j symbols."""
        return self.index_prefixes()[0]

    def index_prefixes(self) -> tuple[tuple, tuple]:
        """``variables_by_prefix`` and ``first_occurrences``, built in one
        pass and stored on the instance.  Prefix lengths with the same
        variables share one tuple."""
        by_prefix: list[tuple[int, ...]] = [()]
        vids: tuple[int, ...] = ()
        firsts: list[tuple[int, int]] = []
        for q, code in enumerate(self.codes):
            if code < 0 and -1 - code not in vids:
                vids = (*vids, -1 - code)
                firsts.append((-1 - code, q))
            by_prefix.append(vids)
        indexes = self.__dict__
        indexes["variables_by_prefix"] = variables_by_prefix = tuple(by_prefix)
        indexes["first_occurrences"] = firsts = tuple(firsts)
        return variables_by_prefix, firsts


class TextString(Record):
    """A (possibly empty) sequence of constants, stored as constant ids.

    ``codes`` is ``bytes``, one byte per id; hand-built codes (any sequence
    of ints) are checked against the table and stored that way too.
    """

    _fields = ("codes", "table")

    def __init__(self, codes, table: SymbolTable) -> None:
        try:  # C-level conversion and check for byte-sized ids
            checked = bytes(codes)
        except ValueError:  # an id outside 0..255, so outside any registry
            stray = tuple(codes)
        else:
            stray = checked.translate(None, _BYTE_IDS[: table.num_constants])
        if stray:
            if min(stray) < 0:
                raise InvalidInputError("text must contain constants only")
            raise InvalidInputError(f"code {max(stray)} out of registry range")
        self.codes = checked
        self.table = table

    @classmethod
    def _encoded(cls, codes: bytes, table: SymbolTable) -> "TextString":
        """A text from :meth:`SymbolTable.encode_text`, whose codes are valid
        by construction, so the checks of ``__init__`` are skipped."""
        text = object.__new__(cls)
        text.codes = codes
        text.table = table
        return text

    def __len__(self) -> int:
        return len(self.codes)


class Substitution:
    """A partial map from variable ids to constant ids."""

    def __init__(self, mapping: Mapping[int, int] | None = None) -> None:
        self.forward: dict[int, int] = dict(mapping) if mapping else {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self.forward == other.forward

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{c}" for v, c in sorted(self.forward.items()))
        return f"Substitution({{{inner}}})"

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.forward.items())

    @property
    def is_injective(self) -> bool:
        return len(set(self.forward.values())) == len(self.forward)

    def as_char_map(self, table: SymbolTable) -> dict[str, str]:
        """Render the map with raw characters, for reports and JSON output."""
        return {
            chr(table.variable_bytes[v]): chr(table.constant_bytes[c])
            for v, c in sorted(self.forward.items())
        }


def classify_input(raw_pattern, raw_text, variable_charset=None) -> tuple[PatternString, TextString]:
    """Split raw byte strings into a pattern and an all-constant text.

    Pattern bytes found in ``variable_charset`` (default: ASCII uppercase)
    become variables; every other pattern byte and *every* text byte becomes
    a constant, so a text may freely contain bytes from the variable charset.
    Registries are filled in first-appearance order, pattern first.
    """
    pattern = encode_pattern(raw_pattern, variable_charset)
    return pattern, encode_text(raw_text, pattern.table)


def encode_pattern(raw, variable_charset=None) -> PatternString:
    """Classify a raw pattern against a fresh table, interning its distinct
    bytes in first-appearance order; bytes in the charset become variables.

    The fresh table is filled here rather than byte by byte through
    ``intern_constant``/``intern_variable``: every key is a byte, and ids
    are dense by construction, so the pattern's codes are valid unchecked.
    """
    raw_bytes = _as_bytes(raw)
    if not raw_bytes:
        raise InvalidInputError("pattern must be non-empty")
    charset = normalize_charset(variable_charset)
    table = SymbolTable()
    constant_ids, variable_ids = table._constant_ids, table._variable_ids
    code_of = {}
    for b in dict.fromkeys(raw_bytes):
        if b in charset:
            code_of[b] = -1 - len(variable_ids)
            variable_ids[b] = len(variable_ids)
        else:
            code_of[b] = constant_ids[b] = len(constant_ids)
    table.constant_bytes += constant_ids
    table.variable_bytes += variable_ids
    return PatternString._encoded(tuple(map(code_of.__getitem__, raw_bytes)), table)


def encode_text(raw, table: SymbolTable) -> TextString:
    """Encode a raw text as constants of ``table``, interning unseen bytes."""
    return TextString._encoded(table.encode_text(_as_bytes(raw)), table)


def _as_bytes(raw) -> bytes:
    if isinstance(raw, bytes):
        return raw
    if isinstance(raw, bytearray):
        return bytes(raw)
    if isinstance(raw, str):
        return raw.encode()
    raise InvalidInputError(f"expected str or bytes, got {type(raw).__name__}")
