"""Execution tiers: how recorded kernel streams are executed.

There are two:

* ``compiled`` (the default) -- each µop program vectorized once into a
  batched numpy closure (:mod:`repro.jit.compile`);
* ``interpret`` -- the per-µop interpreter (:mod:`repro.jit.interpreter`),
  the reference and the only tier that can feed a memory trace.

The two are bitwise identical on every generated variant.  A serving
replica whose compiled bucket fails at runtime rebuilds that bucket on
``interpret`` (:class:`repro.serve.worker.EngineReplica`).

:func:`as_tier` is the one coercion point.  Unknown names raise
:class:`UnknownTierError`, which is both a :class:`ReproError` (the library
contract) and a ``ValueError`` (what input validation expects), and the
message lists every valid tier.
"""

from __future__ import annotations

import enum

from repro.types import ReproError

__all__ = [
    "ExecutionTier",
    "UnknownTierError",
    "EXECUTION_TIERS",
    "as_tier",
]


class UnknownTierError(ReproError, ValueError):
    """A name that is not an execution tier.

    Doubles as a ``ValueError`` so callers validating user input (CLI
    arguments, serve configs, HTTP admin) can catch the standard type.
    """


class ExecutionTier(str, enum.Enum):
    """How recorded kernel streams are executed.

    The ``str`` mixin keeps the enum drop-in compatible with the string
    spellings: ``ExecutionTier.COMPILED == "compiled"`` is true, and
    formatting a member yields the bare value.
    """

    COMPILED = "compiled"
    INTERPRET = "interpret"

    # plain-string str()/format() so metric keys and log lines read
    # "compiled", not "ExecutionTier.COMPILED"
    __str__ = str.__str__
    __format__ = str.__format__


#: every tier name, in declaration order
EXECUTION_TIERS = tuple(t.value for t in ExecutionTier)


def as_tier(tier) -> ExecutionTier:
    """Coerce a string / enum member to :class:`ExecutionTier`.

    Raises :class:`UnknownTierError` (a ``ValueError``) listing the valid
    tiers for anything else.  ``None`` is *not* accepted here -- callers
    wanting "process default" resolve through
    :func:`repro.jit.compile.resolve_execution_tier`.
    """
    if isinstance(tier, ExecutionTier):
        return tier
    if isinstance(tier, str):
        try:
            return ExecutionTier(tier)
        except ValueError:
            pass
    raise UnknownTierError(
        f"unknown execution tier {tier!r}; expected one of "
        f"{EXECUTION_TIERS}"
    )
