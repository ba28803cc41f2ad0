"""Designators for the arithmetic functions the sieves can materialize, and the
input checks that need no sieve (every subcommand loads this module)."""

from __future__ import annotations

from dataclasses import dataclass

#: Value alphabet per tag, and so the set of known tags; None marks the
#: unbounded (and only real-valued) von Mangoldt values.
ALPHABETS = {
    "prime_indicator": (0, 1),
    "twin_prime_indicator": (0, 1),
    "squarefree_indicator": (0, 1),
    "omega_equals": (0, 1),
    "moebius": (-1, 0, 1),
    "liouville": (-1, 1),
    "squarefree_parity_weight": (-1, 0, 2),
    "von_mangoldt": None,
}

#: Exact distribution tables for von Mangoldt stop being practical above this.
VON_MANGOLDT_CDF_LIMIT = 10**7


@dataclass(frozen=True)
class FunctionKind:
    """Which arithmetic function a value table holds.

    ``omega_equals`` is the indicator of having exactly ``k`` distinct prime
    factors and is the only parametrized tag.  ``squarefree_parity_weight``
    is 2 on squarefree numbers with an even number of prime factors, -1 on
    squarefree numbers with an odd number, and 0 elsewhere.
    """

    tag: str
    k: int | None = None

    def __post_init__(self):
        if self.tag == "omega_equals":
            if self.k is None or self.k < 1:
                raise ValueError("omega_equals requires a prime-factor count k >= 1")
        elif self.tag in ALPHABETS:
            if self.k is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        else:
            raise ValueError(f"unknown function kind: {self.tag!r}")

    def __str__(self) -> str:
        if self.tag == "omega_equals":
            return f"omega_equals:{self.k}"
        return self.tag

    @property
    def is_indicator(self) -> bool:
        return self.alphabet() == (0, 1)

    @property
    def is_integer_valued(self) -> bool:
        return self.alphabet() is not None

    def alphabet(self) -> tuple[int, ...] | None:
        """Sorted tuple of possible values, or None when unbounded."""
        return ALPHABETS[self.tag]

    def value_bound(self) -> int | None:
        """sup |f| over the alphabet, or None when unbounded."""
        alphabet = self.alphabet()
        if alphabet is None:
            return None
        return max(abs(v) for v in alphabet)


PRIME = FunctionKind("prime_indicator")
TWIN_PRIME = FunctionKind("twin_prime_indicator")
SQUAREFREE = FunctionKind("squarefree_indicator")
MOEBIUS = FunctionKind("moebius")
LIOUVILLE = FunctionKind("liouville")
PARITY_WEIGHT = FunctionKind("squarefree_parity_weight")
VON_MANGOLDT = FunctionKind("von_mangoldt")


def omega_equals(k: int) -> FunctionKind:
    return FunctionKind("omega_equals", k)


def parse_kind(text: str) -> FunctionKind:
    """Parse 'moebius' or 'omega_equals:3' style kind names."""
    if ":" in text:
        tag, _, param = text.partition(":")
        try:
            k = int(param)
        except ValueError:
            raise ValueError(f"bad kind parameter in {text!r}") from None
        return FunctionKind(tag, k)
    return FunctionKind(text)


def check_cdf_range(kind: FunctionKind, n: int) -> None:
    """Refuse n below 1, and n above VON_MANGOLDT_CDF_LIMIT for the real-valued kind."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind.alphabet() is None and n > VON_MANGOLDT_CDF_LIMIT:
        raise ValueError(
            f"exact distribution tables for von_mangoldt are unsupported beyond n={VON_MANGOLDT_CDF_LIMIT}"
        )


def increasing_ints(values, name: str, minimum: int) -> list[int]:
    """`values` as ints; refuses an empty list, a value below `minimum` and a repeat or descent."""
    out = [int(v) for v in values]
    if not out:
        raise ValueError(f"at least one {name} is required")
    if min(out) < minimum:
        raise ValueError(f"{name}s must be >= {minimum}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name}s must be strictly increasing")
    return out


def validate_checkpoints(checkpoints, n_max: int) -> list[int]:
    """Checkpoints as ints; refuses an empty, unsorted or out-of-[1, n_max] list."""
    cps = increasing_ints(checkpoints, "checkpoint", 1)
    if cps[-1] > n_max:
        raise ValueError(f"checkpoint {cps[-1]} exceeds n_max={n_max}")
    return cps
