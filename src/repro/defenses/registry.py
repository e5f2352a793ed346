"""Name-keyed registry of all defenses under evaluation.

Registry order is the order analysis and prover output list them in.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.defenses.aslr import StackBaseASLR
from repro.defenses.base import Defense, NoDefense, StackCanary
from repro.defenses.cleanstack import CleanStackDefense
from repro.defenses.padding import ForrestPadding
from repro.defenses.shadowstack import ShadowStackDefense
from repro.defenses.smokestack_defense import SmokestackDefense
from repro.defenses.static_permute import StaticPermutation

REGISTRY: Dict[str, Type[Defense]] = {
    defense.name: defense
    for defense in (
        NoDefense,
        StackCanary,
        StackBaseASLR,
        ForrestPadding,
        StaticPermutation,
        CleanStackDefense,
        ShadowStackDefense,
        SmokestackDefense,
    )
}


def make_defense(name: str) -> Defense:
    """Instantiate a defense by registry name."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown defense '{name}'; known: {', '.join(defense_names())}"
        ) from None
    return factory()


def defense_names() -> List[str]:
    return sorted(REGISTRY)
