"""Enumeration guardrails and the file schema version."""

from typing import NamedTuple


class Guardrails(NamedTuple):
    """Size bounds that keep exhaustive constructions finite and fast.

    Enumeration of functors grows exponentially, so every operation that
    enumerates refuses inputs beyond these bounds with a clear error instead
    of hanging.
    """

    max_base_objects: int = 16
    max_fiber_morphisms: int = 8
    max_product_objects: int = 4096
    max_enum_morphisms: int = 64


DEFAULT_GUARDRAILS = Guardrails()

SCHEMA_VERSION = "clubcat/1"

