import functools
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbound.rng import Xoshiro256StarStar, derive_seed, splitmix64, substream_states

GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment
COUNTS = (0, 1, 2, 4, 63, 64, 1025)  # trials a base
# a lane generator's draws, each with the same draw of a trial's own
# generator, written from that generator's words
DRAWS = {
    "next_u64": (lambda rng: rng.next_u64(), lambda word: word),
    "random": (lambda rng: rng.random(), lambda word: (word >> 11) * 2.0 ** -53),
    "randint": (lambda rng: rng.randint(6), lambda word: (word * 6) >> 64),
}


def state(rng):
    return rng.s0, rng.s1, rng.s2, rng.s3


def test_splitmix64_known_answers():
    # the reference sequence of splitmix64.c from seed 1234567
    words, value = [], 1234567
    for _ in range(5):
        value, word = splitmix64(value)
        words.append(word)
    assert words == [6457827717110365317, 3203168211198807973, 9817491932198370423,
                     4593380528125082431, 16408922859458223821]


@pytest.mark.parametrize("seed", [0, 1, GOLDEN, 2 ** 63, 2 ** 64 - GOLDEN, 2 ** 64 - 1])
def test_splitmix64_matches_the_reference_step(seed):
    state = (seed + GOLDEN) % 2 ** 64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    assert splitmix64(seed) == (state, z ^ (z >> 31))


def test_xoshiro256starstar_known_answers():
    # the rand_xoshiro crate's test vector, from the state (1, 2, 3, 4)
    rng = Xoshiro256StarStar((1, 2, 3, 4))
    assert [rng.next_u64() for _ in range(10)] == [
        11520, 0, 1509978240, 1215971899390074240, 1216172134540287360,
        607988272756665600, 16172922978634559625, 8476171486693032832,
        10595114339597558777, 2904607092377533576]


@functools.lru_cache(maxsize=None)
def _references(seed, parts):
    """(state, first sixteen words) of derive_seed(seed, *parts, t)'s
    generator for t = 0, 1, ...: built once per (seed, parts), grown as counts
    ask."""
    return []


def reference_trials(seed, parts, count):
    references = _references(seed, parts)
    for trial in range(len(references), count):
        reference = Xoshiro256StarStar(derive_seed(seed, *parts, trial))
        references.append((state(reference), [reference.next_u64() for _ in range(16)]))
    return references[:count]


def assert_lanes_match(seed, key, count, draw):
    """substream_states gives, lane by lane, the states of the generators
    derive_seed(seed, key, t) for t < count and then of derive_seed(seed,
    key, 2, t), from a base and a trial index a lane, as uint64 lanes; one
    generator built from them draws, lane by lane, the first sixteen draws
    of those generators.  One int base for every lane gives the first half."""
    lane_draw, word_draw = DRAWS[draw]
    bases = [derive_seed(seed, key), derive_seed(seed, key, 2)]
    trials = np.arange(count, dtype=np.uint64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lanes = substream_states(np.repeat(np.array(bases, dtype=np.uint64), count),
                                 np.tile(trials, 2))
        shared = substream_states(bases[0], trials)
        assert [lane.dtype for lane in lanes + shared] == [np.dtype(np.uint64)] * 8
        assert [lane.tolist() for lane in shared] == [lane[:count].tolist() for lane in lanes]
        states = list(zip(*(lane.tolist() for lane in lanes)))
        rng = Xoshiro256StarStar(lanes)  # steps the lane arrays in place
        draws = np.array([lane_draw(rng) for _ in range(16)]).T.tolist()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    references = reference_trials(seed, (key,), count) + reference_trials(seed, (key, 2), count)
    assert len(states) == len(draws) == len(references) == 2 * count
    for lane, (given_state, given_draws, (reference_state, reference_words)) in enumerate(
            zip(states, draws, references)):
        assert given_state == reference_state, lane
        assert given_draws == [word_draw(word) for word in reference_words], lane


@pytest.mark.parametrize("draw", list(DRAWS))
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed,key", list(itertools.product(
    (0, 1, 2 ** 64 - 1), ("scalar/reverse-young-basic", 0, 2 ** 64 - 1))))
def test_substream_lanes_match_derive_seed(seed, key, count, draw):
    assert_lanes_match(seed, key, count, draw)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       key=st.one_of(st.text(max_size=12), st.integers(0, 2 ** 64 - 1)),
       count=st.sampled_from(COUNTS), draw=st.sampled_from(list(DRAWS)))
def test_substream_lanes_match_derive_seed_drawn(seed, key, count, draw):
    assert_lanes_match(seed, key, count, draw)


@pytest.mark.parametrize("n", [0, -1, -3])
def test_randint_rejects_an_empty_range(n):
    with pytest.raises(ValueError) as err:
        Xoshiro256StarStar(5).randint(n)
    assert str(err.value) == f"randint needs n >= 1, got {n}"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
                    reason="this interpreter prints ints of any length")
def test_randint_names_an_int_too_long_to_print():
    # not the bare ValueError of the int-to-text limit
    with pytest.raises(ValueError) as err:
        Xoshiro256StarStar(1).randint(-10 ** 5000)
    assert str(err.value) == "randint needs n >= 1, got <negative int of 16610 bits>"


@pytest.mark.parametrize("n", [2.5, 6.0, True, False, "3", None])
def test_randint_rejects_a_non_integer_before_drawing(n):
    # a bool is no integer here, as the suite settings read it
    rng = Xoshiro256StarStar(1)
    with pytest.raises(TypeError) as err:
        rng.randint(n)
    assert str(err.value) == f"randint needs an integer n, got {n!r}"
    assert rng.next_u64() == Xoshiro256StarStar(1).next_u64()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 2 ** 32 - 1, 2 ** 63, 2 ** 70])
def test_randint_is_the_multiply_shift_of_next_u64(n):
    rng, words = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    draws = [rng.randint(n) for _ in range(200)]
    assert draws == [(words.next_u64() * n) >> 64 for _ in range(200)]
    assert all(0 <= k < n for k in draws)


@pytest.mark.parametrize("count", [1, 3])
def test_gauss_pair_reads_the_stream_of_a_state_from_lanes(count):
    # operator trials draw through a generator of their own, built from
    # their state's lane words as ints
    base = derive_seed(5, "operator/gauss")
    lanes = substream_states(base, np.arange(count, dtype=np.uint64))
    for trial, given_state in enumerate(zip(*(lane.tolist() for lane in lanes))):
        fast = Xoshiro256StarStar(given_state)
        reference = Xoshiro256StarStar(derive_seed(base, trial))
        twin = Xoshiro256StarStar(derive_seed(base, trial))
        pairs = [fast.gauss_pair() for _ in range(6)]
        assert pairs == [reference.gauss_pair() for _ in range(6)], trial
        for pair in pairs:
            # the Box-Muller of 1 - random() and random()
            u1 = 1.0 - twin.random()
            u2 = twin.random()
            r = math.sqrt(-2.0 * math.log(u1))
            assert pair == (r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2))
