import functools
import itertools
import math
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbound.rng import (
    SUBSTREAM_CHUNK,
    Xoshiro256StarStar,
    derive_seed,
    splitmix64,
    substream_states,
)

GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment
COUNTS = (0, 1, 4, SUBSTREAM_CHUNK - 1, SUBSTREAM_CHUNK, SUBSTREAM_CHUNK + 1,
          5 * SUBSTREAM_CHUNK // 2)
# read-ahead depths: none, the scalar trial's four words, and more
AHEADS = (0, 4, 7)


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
def _references(seed, key):
    """(state, first sixteen words) of derive_seed(seed, key, t)'s generator
    for t = 0, 1, ...: built once per (seed, key), grown as counts ask."""
    return []


def reference_trials(seed, key, count):
    references = _references(seed, key)
    for trial in range(len(references), count):
        reference = Xoshiro256StarStar(derive_seed(seed, key, trial))
        references.append((state(reference), [reference.next_u64() for _ in range(16)]))
    return references[:count]


def assert_substreams_match(seed, key, count, ahead):
    """Every tuple of substream_states(derive_seed(seed, key), count, ahead)
    gives a generator with the first words of derive_seed(seed, key, t)'s;
    without read-ahead it is that generator's state.  Sixteen words run past
    every read-ahead, so the state after it is checked too."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = list(substream_states(derive_seed(seed, key), count, ahead))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(states) == count
    for trial, (given_state, (reference_state, reference_words)) in enumerate(
            zip(states, reference_trials(seed, key, count))):
        assert len(given_state) == 4 + ahead
        fast = Xoshiro256StarStar(given_state)
        if not ahead:
            assert state(fast) == reference_state, trial
        assert [fast.next_u64() for _ in range(16)] == reference_words, trial


@pytest.mark.parametrize("ahead", AHEADS)
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed,key", list(itertools.product(
    (0, 1, 2 ** 64 - 1), ("scalar/reverse-young-basic", 0, 2 ** 64 - 1))))
def test_substream_states_match_derive_seed(seed, key, count, ahead):
    assert_substreams_match(seed, key, count, ahead)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       key=st.one_of(st.text(max_size=12), st.integers(0, 2 ** 64 - 1)),
       count=st.sampled_from(COUNTS), ahead=st.sampled_from(AHEADS))
def test_substream_states_match_derive_seed_drawn(seed, key, count, ahead):
    assert_substreams_match(seed, key, count, ahead)


def test_substream_states_work_chunk_by_chunk():
    # a count no single array could hold still yields its first state at once
    first = next(substream_states(5, 10 ** 15))
    assert first == state(Xoshiro256StarStar(derive_seed(5, 0)))


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


@pytest.mark.parametrize("n", [1, 2, 3, 6, 2 ** 63])
def test_randint_is_the_multiply_shift_of_next_u64(n):
    rng, words = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    draws = [rng.randint(n) for _ in range(200)]
    assert draws == [(words.next_u64() * n) >> 64 for _ in range(200)]
    assert all(0 <= k < n for k in draws)


@pytest.mark.parametrize("ahead", [0, 1, 4, 7])
def test_gauss_pair_reads_the_same_stream_after_any_read_ahead(ahead):
    # an odd depth splits a pair across the end of the read-ahead buffer:
    # its first word is buffered, its second the generator's own step
    base = derive_seed(5, "operator/gauss")
    for trial, given_state in enumerate(substream_states(base, 3, ahead)):
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
