"""Random seed states for property tests, benchmarks and ``sncresolve gen``."""

import itertools
import random

from . import resolution_engine as re_
from . import snc_model as sm


def random_state(rng: random.Random, max_components: int = 5,
                 max_corank: int = 3, max_total_exponent: int = 6
                 ) -> re_.ResolutionState:
    """A random seed state within the verifier's scale bounds.

    Components and strata form a random downward-closed intersection
    family; deep strata get random determinant sizes, and a few divisors
    with small coefficients are scattered over the charts.
    """
    n = rng.randint(1, max_components)
    comps = [f"E{i}" for i in range(1, n + 1)]
    present = {frozenset([c]) for c in comps}
    for size in range(2, n + 1):
        prob = {2: 0.7, 3: 0.6, 4: 0.5}.get(size, 0.4)
        for subset in itertools.combinations(comps, size):
            fs = frozenset(subset)
            if all(fs - {c} in present for c in fs) and rng.random() < prob:
                present.add(fs)
    snc = sm.from_index_sets(comps, present)
    coranks = {}
    for s in snc.strata:
        if len(s.indices) >= 2:
            coranks[s.id] = rng.randint(0, max_corank)
    state = re_.seed_from_snc(snc, coranks)

    n_div = rng.randint(0, 2)
    divisors = [(f"f{i}", rng.randint(1, 3)) for i in range(1, n_div + 1)]
    placements = {}
    budget = {pos: max_total_exponent for pos in range(len(state.charts))}
    for div, coeff in divisors:
        for pos in range(len(state.charts)):
            if rng.random() < 0.5 and budget[pos] >= coeff:
                placements.setdefault(pos, []).append(div)
                budget[pos] -= coeff
    if divisors:
        state = re_.with_initial_divisors(state, divisors, placements)
    return state
