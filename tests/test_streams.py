import warnings

import numpy as np

from necktree import streams


def test_scalar_vector_agree():
    state = streams.fold(12345, 99)
    counters = np.arange(0, 2000, dtype=np.uint64)
    vec = streams.fold_array(state, counters)
    for k in (0, 1, 7, 63, 1999):
        assert int(vec[k]) == streams.fold(state, k)
    u_vec = streams.u01_array(vec)
    for k in (0, 1, 1999):
        assert u_vec[k] == streams.u01(int(vec[k]))


def test_u01_range_and_rough_uniformity():
    state = streams.fold(7, 0)
    u = streams.u01_array(streams.fold_array(state, np.arange(100_000, dtype=np.uint64)))
    assert np.all((0.0 <= u) & (u < 1.0))
    hist, _ = np.histogram(u, bins=20, range=(0, 1))
    # 20 bins of 5000 expected; 5 sigma band
    assert np.all(np.abs(hist - 5000) < 5 * np.sqrt(5000))


def test_fold_separates_streams():
    a = streams.fold(42, streams.TAG_HOMOGENEOUS)
    b = streams.fold(42, streams.TAG_RECURSIVE)
    assert a != b
    assert streams.fold(a, 0) != streams.fold(b, 0)


def test_mix64_reference_values():
    # splitmix64 published test vector: seed 0 yields these first outputs,
    # which equal mix64 of successive golden-ratio multiples.
    seq = [streams.mix64((i + 1) * streams.GOLDEN & streams.MASK64) for i in range(3)]
    assert seq == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_fold_array_over_state_arrays_matches_scalar_fold():
    # states near 2**64 make the golden-ratio add wrap
    states = np.array([0, 1, 2**63, 2**64 - 1, 2**64 - streams.GOLDEN, 12345], dtype=np.uint64)
    counters = np.array([0, 1, 2**32, 2**64 - 2], dtype=np.uint64)
    table = streams.fold_array(states[:, None], counters[None, :])
    assert table.shape == (states.size, counters.size)
    for i, s in enumerate(states):
        for j, c in enumerate(counters):
            assert int(table[i, j]) == streams.fold(int(s), int(c))
    assert np.array_equal(streams.fold_array(states, counters[1:2]), table[:, 1])
    assert np.array_equal(streams.fold_array(int(states[3]), counters), table[3])


def test_fold_array_scalar_shapes_match_fold_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state, counter in [(5, 3), (2**64 - 1, 2**64 - 2), (streams.GOLDEN, 0)]:
            want = streams.fold(state, counter)
            assert int(streams.fold_array(state, np.uint64(counter))) == want
            assert int(streams.fold_array(state, np.array(counter, dtype=np.uint64))) == want
            one = streams.fold_array(
                np.array([state], dtype=np.uint64), np.array(counter, dtype=np.uint64)
            )
            assert one.shape == (1,) and int(one[0]) == want
