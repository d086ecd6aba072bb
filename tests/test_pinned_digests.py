"""Pinned sha256 digests of seeded equivalence sweeps.

Each digest is taken over a canonical text of every outcome of a sweep,
errors included (type and message), so a refactor that must keep outputs
byte for byte is checked by the suite rather than by hand.  When a change
alters an output on purpose, it updates the digest and says why.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from relpoly import modaction
from relpoly.modaction import check_commutators
from test_modaction import (
    commutator_outcome,
    diagonal_cartan,
    distant_raise,
    random_relation_set,
    random_sample,
    term_side_raise,
)

COMMUTATOR_SEEDS = range(1000, 1005)
COMMUTATOR_CASES_PER_SEED = 1200


@lru_cache(maxsize=1)
def commutator_cases():
    """(C, L, sample) for 1200 random relation sets on n = 2..5 per seed."""
    cases = []
    for seed in COMMUTATOR_SEEDS:
        rng = random.Random(seed)
        for _ in range(COMMUTATOR_CASES_PER_SEED):
            C = random_relation_set(rng, rng.randint(2, 5))
            cases.append((C, *random_sample(rng, C)))
    return tuple(cases)


# action -> (the function it replaces, the perturbation, the sha256 of the
# outcomes); the true action runs every case, a perturbed one every 5th.
# The perturbations are those of the *_fail_like_the_reference tests in
# tests/test_modaction.py, so that failing brackets are pinned as well.
COMMUTATOR_DIGESTS = {
    "true": (
        None, None, "3ec3cb588422f5737ee73e1b05a9e3bd221505130060de8e06038260e7732842"),
    "diagonal cartan": (
        "act_cartan", diagonal_cartan,
        "0841f96b142e6c98ca02041350f795938bdf49369fb55ca74a7853c27b05f2a5"),
    "term-side raise": (
        "act_raise", term_side_raise,
        "ea214a10432d7840276e81b7db55987a956beac00aa0e995d83a5760a04d4ac2"),
    "distant raise": (
        "act_raise", distant_raise,
        "aef9175bf95abf3164b0a0562d9275bf5cc46c18ef4b09c53f773aa4d878490c"),
}


@pytest.mark.parametrize("action", COMMUTATOR_DIGESTS)
def test_commutator_sweep_is_pinned(monkeypatch, action):
    name, perturb, want = COMMUTATOR_DIGESTS[action]
    cases = commutator_cases()
    if perturb is not None:
        monkeypatch.setattr(modaction, name, perturb(getattr(modaction, name)))
        cases = cases[::5]
    digest = hashlib.sha256()
    for C, L, sample in cases:
        digest.update(f"{commutator_outcome(check_commutators, C, L, sample)!r}\n".encode())
    assert digest.hexdigest() == want
