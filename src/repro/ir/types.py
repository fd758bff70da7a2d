"""Type system for the MLIR-style IR.

The paper's code generation only needs a small slice of MLIR's type
system: scalar floats and integers, ``index``, fixed-shape vectors of
doubles (the SIMD lanes, one cell per lane), and memrefs for the cell
state arrays.

Types are immutable and uniqued, as in an ``MLIRContext``: building a
type from the same arguments — a constructor call, :func:`vector_of`,
:func:`broadcast_type`, :func:`memref_of`, :func:`parse_type` — returns
one canonical instance, so ``is`` and ``==`` agree.  The class's
metaclass looks the arguments up before anything else runs; only the
first build of a value runs the dataclass ``__init__`` and its checks,
and it computes the printed text and the hash once, which ``str`` and
``hash`` then return.  ``hash`` and ``repr`` are the frozen dataclass
values they always were.

Interning survives ``pickle``, ``copy.copy`` and ``copy.deepcopy``:
:meth:`IRType.__reduce__` rebuilds a type by calling its class with its
field values, which is a lookup, so none of them makes a second
instance (the default reduction would make one with ``cls.__new__``
and then write its state into it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

#: (class, *field values) -> the canonical instance of that type
_UNIQUED: Dict[tuple, "IRType"] = {}


class _Uniqued(type):
    """Metaclass of the IR types: one shared instance per value."""

    def __call__(cls, *args, **kwargs):
        if not kwargs:
            ty = _UNIQUED.get((cls, *args))
            if ty is not None:
                return ty
        ty = super().__call__(*args, **kwargs)
        values = tuple(getattr(ty, f.name) for f in fields(ty))
        object.__setattr__(ty, "_values", values)
        object.__setattr__(ty, "_hash", hash(values))
        object.__setattr__(ty, "_text", ty._format())
        # a value built by keyword, or on two threads at once, still ends
        # up with the one instance that got there first
        return _UNIQUED.setdefault((cls, *values), ty)


class IRType(metaclass=_Uniqued):
    """Base class for all IR types."""

    is_float = False
    is_integer = False
    is_vector = False

    def _format(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self}>"

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), self._values


@dataclass(frozen=True, eq=False)
class FloatType(IRType):
    """An IEEE float type, printed ``f<width>``."""

    width: int

    is_float = True

    def __post_init__(self) -> None:
        if self.width not in (32, 64):
            raise ValueError(f"unsupported float width: {self.width}")

    def _format(self) -> str:
        return f"f{self.width}"


@dataclass(frozen=True, eq=False)
class IntegerType(IRType):
    """A signless integer type, printed ``i<width>``."""

    width: int

    is_integer = True

    def __post_init__(self) -> None:
        if self.width not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {self.width}")

    def _format(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True, eq=False)
class IndexType(IRType):
    """Target-width integer used for loop counters and memory indexing."""

    is_integer = True

    def _format(self) -> str:
        return "index"


@dataclass(frozen=True, eq=False)
class VectorType(IRType):
    """A fixed-width 1-D vector, e.g. ``vector<8xf64>``."""

    width: int
    element: IRType

    is_vector = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"vector width must be >= 1, got {self.width}")
        if isinstance(self.element, (VectorType, MemRefType)):
            raise ValueError("vectors of vectors/memrefs are not supported")
        object.__setattr__(self, "is_float", self.element.is_float)
        object.__setattr__(self, "is_integer", self.element.is_integer)

    def _format(self) -> str:
        return f"vector<{self.width}x{self.element}>"


@dataclass(frozen=True, eq=False)
class MemRefType(IRType):
    """A shaped buffer reference, e.g. ``memref<?xf64>``.

    ``shape`` entries of ``None`` denote dynamic dimensions (printed as
    ``?``), matching MLIR's convention.
    """

    shape: Tuple[Optional[int], ...]
    element: IRType

    def _format(self) -> str:
        dims = "x".join("?" if d is None else str(d) for d in self.shape)
        if dims:
            return f"memref<{dims}x{self.element}>"
        return f"memref<{self.element}>"

    @property
    def rank(self) -> int:
        return len(self.shape)


@dataclass(frozen=True, eq=False)
class FunctionType(IRType):
    """A function signature type."""

    inputs: Tuple[IRType, ...]
    results: Tuple[IRType, ...]

    def _format(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.results)
        if len(self.results) == 1:
            return f"({ins}) -> {outs}"
        return f"({ins}) -> ({outs})"


# The scalars the generators emit (cell values, predicates, addresses).
f64 = FloatType(64)
i1 = IntegerType(1)
index = IndexType()

_SCALARS = {str(ty): ty for ty in (f64, i1, index)}


def vector_of(width: int, element: IRType = f64) -> VectorType:
    """Return ``vector<{width}x{element}>``."""
    return VectorType(width, element)


def memref_of(element: IRType, *shape: Optional[int]) -> MemRefType:
    """Return ``memref<{shape}x{element}>``; dims default to one dynamic dim."""
    if not shape:
        shape = (None,)
    return MemRefType(tuple(shape), element)


def element_type(ty: IRType) -> IRType:
    """The scalar element of ``ty`` (itself if already scalar)."""
    if isinstance(ty, VectorType):
        return ty.element
    if isinstance(ty, MemRefType):
        return ty.element
    return ty


def vector_width(ty: IRType) -> int:
    """The lane count of ``ty`` (1 for scalars)."""
    if isinstance(ty, VectorType):
        return ty.width
    return 1


def broadcast_type(ty: IRType, width: int) -> IRType:
    """Return ``ty`` widened to ``width`` lanes (identity for width 1)."""
    if width == 1:
        return ty
    scalar = element_type(ty)
    return VectorType(width, scalar)


def parse_type(text: str) -> IRType:
    """Parse a type from its printed form (inverse of ``str``).

    Supports the subset this IR produces: scalars, vectors, memrefs and
    function types are handled by the full IR parser instead.
    """
    text = text.strip()
    scalar = _SCALARS.get(text)
    if scalar is not None:
        return scalar
    if text.startswith("vector<") and text.endswith(">"):
        body = text[len("vector<"):-1]
        width_str, _, elem_str = body.partition("x")
        return VectorType(int(width_str), parse_type(elem_str))
    if text.startswith("memref<") and text.endswith(">"):
        # peel dimensions only while they are ``?`` or digits: an
        # element type may hold an ``x`` (``index``, ``vector<8xf64>``)
        body = text[len("memref<"):-1]
        shape = []
        dim, sep, rest = body.partition("x")
        while sep and (dim == "?" or dim.isdigit()):
            shape.append(None if dim == "?" else int(dim))
            body = rest
            dim, sep, rest = body.partition("x")
        return MemRefType(tuple(shape), parse_type(body))
    raise ValueError(f"cannot parse type: {text!r}")
