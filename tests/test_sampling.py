import hashlib
import json

import pytest

from morseres.sampling import random_ideals

# SHA-256 of the JSON (sort_keys) of the to_dict() list of
# random_ideals(1000, q=4, s=3, seed=0); any change to the sampler's
# stream changes it, so each seed keeps drawing the same ideals
STREAM_DIGEST = "d95f04dde6571db98c50479a1ec01af8cfa5d322cf84b1ad1de8d2f510c5142b"


def test_sampler_stream_is_pinned():
    doc = [ideal.to_dict() for ideal in random_ideals(1000, q=4, s=3, seed=0)]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == STREAM_DIGEST


@pytest.mark.parametrize("num_vars", [-1, 0, 1, 17])
def test_sampler_rejects_variable_counts_it_cannot_draw_from(num_vars):
    with pytest.raises(ValueError, match="num_vars"):
        next(random_ideals(1, q=4, s=3, num_vars=num_vars))


def test_sampler_draws_minimal_ideals_with_the_relation():
    for ideal in random_ideals(50, q=5, s=4, seed=31, num_vars=7):
        gens = ideal.generators
        assert ideal.is_minimal
        assert all(g.is_squarefree and g.degree >= 2 for g in gens)
        target = gens[1].lcm(gens[2]).lcm(gens[3])
        assert gens[0].divides(target)
