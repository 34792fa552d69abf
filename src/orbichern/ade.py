"""ADE labels for du Val (rational double point) singularities.

A label names a finite subgroup of SU(2) together with the resolution data
of the corresponding quotient singularity C^2/G.  The stored parameter is
the family parameter n: type A_{n-1} is stored as n >= 1 (cyclic of order
n, with n = 1 the smooth point), type D_{n+2} as n >= 2 (binary dihedral of
order 4n), and types E6/E7/E8 store their own subscript.

``resolution_data`` is the one catalog of what a label names: the node
count, the group order, chi of the exceptional fiber and the group's
name.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import InvalidLabel, quoted

_LABEL_RE = re.compile(r"([ADE])([0-9]+)")

_E_DATA = {
    # subscript -> (node count, group order, group name)
    6: (6, 24, "binary tetrahedral group"),
    7: (7, 48, "binary octahedral group"),
    8: (8, 120, "binary icosahedral group"),
}


class AdeLabel(namedtuple("AdeLabel", "kind parameter")):
    """A family letter and an integer family parameter; ordered as (kind, parameter)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(cls, kind: str, parameter: int) -> "AdeLabel":
        if kind not in ("A", "D", "E"):
            raise InvalidLabel(f"unknown family {quoted(kind)}")
        if isinstance(parameter, bool) or not isinstance(parameter, int):
            raise InvalidLabel(f"type {kind} parameter must be an integer, got {quoted(parameter)}")
        if kind == "A":
            if parameter < 1:
                raise InvalidLabel(f"type A needs n >= 1, got n={parameter}")
        elif kind == "D":
            if parameter < 2:
                raise InvalidLabel(f"type D needs n >= 2, got n={parameter}")
        elif parameter not in _E_DATA:
            raise InvalidLabel(f"type E subscript must be 6, 7 or 8, got {parameter}")
        return tuple.__new__(cls, (kind, parameter))

    @property
    def subscript(self) -> int:
        """The Dynkin subscript: A_{n-1}, D_{n+2}, E_k."""
        if self.kind == "A":
            return self.parameter - 1
        if self.kind == "D":
            return self.parameter + 2
        return self.parameter

    @classmethod
    def from_string(cls, text: str) -> "AdeLabel":
        match = _LABEL_RE.fullmatch(text) if isinstance(text, str) else None
        if not match:
            raise InvalidLabel(f"not an ADE label: {quoted(text)}")
        kind, digits = match.groups()
        try:
            sub = int(digits)
        except ValueError:  # past Python's integer-string digit limit
            raise InvalidLabel(f"label subscript has too many digits ({len(digits)})") from None
        if kind == "A":
            return cls("A", sub + 1)
        if kind == "D":
            if sub < 4:
                raise InvalidLabel(f"type D subscript must be >= 4, got {sub}")
            return cls("D", sub - 2)
        return cls("E", sub)

    def __str__(self) -> str:
        return f"{self.kind}{self.subscript}"


class AdeResolutionData(
    namedtuple("AdeResolutionData", "label node_count group_order chi_exceptional group_name")
):
    """Resolution data of the quotient singularity named by ``label``.

    ``node_count`` is the number of exceptional (-2)-curves in the minimal
    resolution (the number of Dynkin nodes), ``chi_exceptional`` the
    topological Euler number of the exceptional fiber (a tree of
    node_count spheres, so node_count + 1), ``group_order`` the order
    of the finite subgroup of SU(2), and ``group_name`` its name
    ("binary dihedral group").
    """

    __slots__ = ()

    @property
    def point_term(self) -> Fraction:
        """chi(E) - 1/|G|, twelve times the Todd contribution of the point."""
        return Fraction(self.chi_exceptional * self.group_order - 1, self.group_order)


def resolution_data(label: AdeLabel) -> AdeResolutionData:
    n = label.parameter
    if label.kind == "A":
        nodes, order, name = n - 1, n, "cyclic group"
    elif label.kind == "D":
        nodes, order, name = n + 2, 4 * n, "binary dihedral group"
    else:
        nodes, order, name = _E_DATA[n]
    return AdeResolutionData(label, nodes, order, nodes + 1, name)
