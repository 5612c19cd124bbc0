"""The seeded stream: numpy's `default_rng` draw for draw, and the
first parameter draws of the program pinned as literals."""

import math

import numpy as np
import pytest

from mdpv.ansatz import draw_aux
from mdpv.catalog import draw_params, family_rng
from mdpv.rng import Stream

ENTROPY = [
    0, 1, 42, 2 ** 32, 2 ** 64 - 1, 2 ** 96 + 5,
    [0], [42, 2], [7, 11], [2 ** 200 + 12345, 7],
    [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5],
    [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7],
]


def _draws(gen, n: int = 600) -> list:
    # uniform and choice interleaved, so a kept high half of a 32-bit
    # draw must survive the 64-bit draws between two choices
    out = []
    for i in range(n):
        k = i % 5
        if k in (0, 3):
            out.append(float(gen.uniform(-1.5 * k, 0.25 + i % 7)))
        elif k in (1, 4):
            out.append(float(gen.choice([-1.0, 1.0])))
        else:
            out.append(int(gen.choice([0, 1, 2, 3, 4])))
    return out


@pytest.mark.parametrize("entropy", ENTROPY, ids=repr)
def test_stream_equals_numpy_default_rng(entropy):
    assert _draws(Stream(entropy)) == _draws(np.random.default_rng(entropy))


def test_one_item_choice_draws_nothing():
    s, g = Stream(3), np.random.default_rng(3)
    assert s.choice(["only"]) == g.choice(["only"]) == "only"
    assert s.uniform(0.0, 1.0) == g.uniform(0.0, 1.0)


@pytest.mark.parametrize("low,high", [(0.0, math.inf), (-1e308, 1e308),
                                      (math.nan, 1.0)])
def test_non_finite_range_overflows(low, high):
    with pytest.raises(OverflowError):
        Stream(1).uniform(low, high)


def test_reversed_range_is_refused():
    with pytest.raises(ValueError):
        Stream(1).uniform(1.0, 0.5)


@pytest.mark.parametrize("entropy", [-1, [3, -1]])
def test_negative_entropy_is_refused(entropy):
    with pytest.raises(ValueError):
        Stream(entropy)


# the first draw of each family at seed 42 and b = 0, the first b of a
# default `system-verify`: these fix the stream whatever numpy is
# installed
@pytest.mark.parametrize("fid,params", [
    ("u2", {"mu": 0.5737053746202185}),
    ("u7", {"a2": -1.8034645166823717}),
    ("u20", {"alpha": 0.7998200295308708, "beta": 0.6612584790071792,
             "gamma": -0.09662690088743855}),
    ("u22", {"alpha": 0.7524422412280338, "beta": 1.046236923669415,
             "gamma": 0.21222403351282956}),
])
def test_first_draws_at_seed_42(fid, params):
    assert draw_params(fid, family_rng(42, fid), 0.0) == params


def test_first_u11_alpha_at_seed_42():
    rng = family_rng(42, "u11")
    assert draw_params("u11", rng, 0.0) == {"beta": 0.3218307809344823}
    assert draw_aux("u11", rng) == {"alpha": 1.1128505380926381}
