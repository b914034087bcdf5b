"""Caps on the global dimension and on trial counts.

States are stored as dense vectors over the product of the register
dimensions, so that product is capped. Step Hamiltonians are applied term
by term and never stored as matrices (the dense ``global_matrix`` is a test
oracle), so memory grows with such vectors, up to the 65 of a Lanczos basis,
not with their square. The default suits desk-scale experiments; set
``PEPS_FORGE_DIM_CAP`` to override. Batches of trials keep a record or a
draw per trial, so their count is capped at :data:`MAX_TRIALS`, and a
batch of repair chains may run up to ``m`` rounds per trial, so its rounds
are capped at :data:`MAX_CHAIN_ROUNDS`.
"""

from __future__ import annotations

import math
import os

from .errors import CapacityError, InvalidInputError

DEFAULT_DIM_CAP = 4096

#: most trials one sweep, Lemma 1 scan or Lemma 2 batch runs
MAX_TRIALS = 10**6

#: most chain rounds (alternation cap times trials) one Lemma 2 batch may
#: run, about a second of draws when no chain lands
MAX_CHAIN_ROUNDS = 10**8

_ENV_VAR = "PEPS_FORGE_DIM_CAP"


def dim_cap() -> int:
    """Return the active global-dimension cap."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidInputError(f"{_ENV_VAR} must be positive, got {cap}")
    return cap


def check_dim(dim: int, what: str) -> None:
    """Raise :class:`CapacityError` when ``dim`` exceeds the active cap.

    A dimension of more than 128 bits is reported as a power of ten below
    it, never in full.
    """
    cap = dim_cap()
    if dim > cap:
        bits = int(dim).bit_length()
        # dim >= 2^(bits - 1) > 10^k, and str() of a huge int may raise
        k = math.floor((bits - 1) * math.log10(2))
        text = str(dim) if bits <= 128 else f"more than 10^{k}"
        raise CapacityError(
            f"{what} requires dimension {text}, above the cap {cap} "
            f"(set {_ENV_VAR} to raise it)"
        )


def check_trials(trials: int) -> None:
    """Raise :class:`CapacityError` when ``trials`` exceeds :data:`MAX_TRIALS`."""
    if trials > MAX_TRIALS:
        raise CapacityError(f"trials must be at most {MAX_TRIALS}")
