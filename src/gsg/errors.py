"""Exception types shared across the package."""

from __future__ import annotations


class GsgError(Exception):
    """Base class for every error raised by this library."""


class InvalidIdentifier(GsgError):
    def __init__(self, token: str, kind: str = "identifier"):
        self.token = token
        self.kind = kind
        super().__init__(f"invalid {kind} {token!r}: identifiers are nonempty, "
                         f"contain no whitespace, '#', '=', or '->'")


class UnknownIdentifier(GsgError):
    def __init__(self, name: str, kind: str = "identifier"):
        self.name = name
        self.kind = kind
        super().__init__(f"unknown {kind}: {name!r}")


class NameClash(GsgError):
    def __init__(self, name: str, where: str = ""):
        self.name = name
        msg = f"name {name!r} declared more than once"
        if where:
            msg += f" ({where})"
        super().__init__(msg)


class MissingEntry(GsgError):
    def __init__(self, a: str, gamma: str, b: str):
        self.a, self.gamma, self.b = a, gamma, b
        super().__init__(f"table entry missing for ({a}, {gamma}, {b})")


class DuplicateEntry(GsgError):
    def __init__(self, a: str, gamma: str, b: str, first: str, second: str):
        self.a, self.gamma, self.b = a, gamma, b
        self.first, self.second = first, second
        super().__init__(f"table entry ({a}, {gamma}, {b}) defined twice: "
                         f"{first!r} then {second!r}")


class NotAssociative(GsgError):
    def __init__(self, witness):
        self.witness = witness
        a, gamma, b, mu, c = witness
        super().__init__(f"associativity fails at ({a}, {gamma}, {b}, {mu}, {c})")


class NotAHomomorphism(GsgError):
    def __init__(self, name: str, witness):
        self.name = name
        self.witness = witness
        super().__init__(f"{name!r} is not a homomorphism; witness {witness}")


class IncompleteMap(GsgError):
    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(f"{kind} map has no image for {name!r}")


class MalformedSequence(GsgError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"malformed letter sequence: {reason}")


class CrossFamilyGamma(GsgError):
    def __init__(self, x: str, gamma: str, y: str):
        self.x, self.gamma, self.y = x, gamma, y
        super().__init__(f"factor ({x}, {gamma}, {y}) joins letters of one member "
                         f"through a gamma of another and cannot be reduced")


class ModeMismatch(GsgError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class GammaMismatch(GsgError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class MissingHomomorphism(GsgError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"no homomorphism supplied for family member {index + 1}")


class NonPositiveLimit(GsgError, ValueError):
    """A search bound or budget that is no integer, or is below 1."""


class NotCompatible(GsgError):
    def __init__(self, x: str, y: str, gamma: str, z: str):
        self.x, self.y, self.gamma, self.z = x, y, gamma, z
        super().__init__(f"relation is not compatible: {x} ~ {y} but translation "
                         f"by ({gamma}, {z}) separates them")


class NotMonomorphism(GsgError):
    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"map {index + 1} is not a monomorphism: {reason}")


class CommutingSquareFails(GsgError):
    def __init__(self, element: str):
        self.element = element
        super().__init__(f"square does not commute on core element {element!r}")


class ParseError(GsgError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"{line}:{col}: {message}")


class UnresolvedReference(ParseError):
    def __init__(self, name: str, line: int, col: int):
        self.name = name
        super().__init__(line, col, f"unresolved reference {name!r}")
