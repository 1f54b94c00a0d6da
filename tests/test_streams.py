"""Batched seeding against numpy's own: every derived state and every draw
equals that of a fresh ``PCG64(SeedSequence(seed, spawn_key=key))``."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace_hpo import search_space, simulate, streams
from ace_hpo.history import ConstraintSpec
from ace_hpo.schedulers import AshaConfig, AshaScheduler, post_hoc_feasibility_scan
from ace_hpo.search_space import Configuration, ParamKind, ParamSpec, SearchSpace, sample
from ace_hpo.simulate import constraint_curve_value, make_problem, metric_noise, run_experiment
from ace_hpo.streams import seed_states

WORD = st.integers(0, 2**32 - 1)


def fresh_generator(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def fresh_state(seed, key):
    state = fresh_generator(seed, key).bit_generator.state["state"]
    return (state["state"], state["inc"])


def derived_states(seed, keys):
    rows = seed_states(seed, keys).tolist()
    return [(hi << 64 | lo, inc_hi << 64 | inc_lo) for hi, lo, inc_hi, inc_lo in rows]


def fresh_noise(seed, trial_id, iteration, tag):
    return float(fresh_generator(seed, (trial_id, iteration, tag)).standard_normal())


def fresh_sample(space, seed, trial_index):
    values = {
        spec.name: search_space._sample_param(spec, fresh_generator(seed, (trial_index, j)))
        for j, spec in enumerate(space.params)
    }
    return Configuration(values, int(values[space.iteration_axis.name]))


def small_space():
    return SearchSpace(
        (
            ParamSpec("rounds", ParamKind.LOG_UNIFORM_INT, 4, 1024, iteration_axis=True),
            ParamSpec("lr", ParamKind.LOG_UNIFORM_REAL, 1e-4, 1.0),
            ParamSpec("mix", ParamKind.UNIFORM_REAL, 0.0, 1.0),
            ParamSpec("arch", ParamKind.CHOICE, choices=("a", "b", "c")),
        )
    )


class TestSeedStates:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**140),
        keys=st.integers(2, 3).flatmap(
            lambda k: st.lists(st.tuples(*[WORD] * k), min_size=1, max_size=8)
        ),
    )
    def test_matches_numpy(self, seed, keys):
        assert derived_states(seed, keys) == [fresh_state(seed, key) for key in keys]

    @pytest.mark.parametrize("seed", [0, 5, 1_000_003, 2**32 - 1, 2**33 + 1, 2**128, 2**140 + 9])
    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_matches_numpy_on_fixed_seeds(self, seed, length):
        keys = np.random.default_rng(length).integers(0, 2**32, size=(40, length))
        keys[0], keys[1] = 0, 2**32 - 1
        assert derived_states(seed, keys) == [fresh_state(seed, tuple(map(int, k))) for k in keys]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        keys=st.lists(
            st.tuples(st.integers(0, 2**70), WORD, st.integers(0, 2**40)), min_size=1, max_size=6
        ),
    )
    def test_keys_with_wide_words_take_numpy_seeding(self, seed, keys):
        rows = np.array(keys, dtype=object)
        assert derived_states(seed, rows) == [fresh_state(seed, key) for key in keys]

    def test_negative_key_rejected_like_numpy(self):
        with pytest.raises(ValueError):
            seed_states(3, [(1, -1)])

    def test_drift_guard_names_numpy_version(self, monkeypatch):
        monkeypatch.setattr(streams, "_generator", None)
        monkeypatch.setattr(streams, "_MULT_B", streams._MULT_B ^ 1)
        streams._prefix.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
                seed_states(0, [(1, 2)])
        finally:
            streams._prefix.cache_clear()


class TestMetricNoise:
    EDGE_KEYS = [
        (seed, trial, iteration, tag)
        for seed in (0, 7)
        for tag in (0, 1)
        for trial, iteration in [
            (0, 1), (511, 1), (512, 1), (1023, 1),       # level-0 tiles of 512 trials
            (63, 8), (64, 8), (63, 15), (64, 16),        # 8-iteration tiles of 64 trials
            (1, 255), (2, 256), (3, 511), (0, 512),      # 256- and 512-iteration tiles
            (0, 1023), (0, 1024), (0, 1535), (1, 1536),  # tiles of 512 iterations each
            (5, 0),                                      # iteration 0 has no tile
            (2**32 + 3, 2), (4, 2**32 + 1),              # wide words
        ]
    ]

    def test_matches_fresh_generator_forward_and_reversed(self):
        for keys in (self.EDGE_KEYS, self.EDGE_KEYS[::-1]):
            streams.grid_states.cache_clear()
            assert [metric_noise(*key) for key in keys] == [fresh_noise(*key) for key in keys]

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2**33 + 5]),
                st.integers(0, 3000),
                st.integers(1, 2100),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_any_access_order(self, keys):
        assert [metric_noise(*key) for key in keys] == [fresh_noise(*key) for key in keys]

    def test_same_after_eviction(self):
        first = [metric_noise(0, trial, 3, 1) for trial in range(0, 600, 37)]
        for block in range(40):
            metric_noise(1, block * 512, 1, 0)
        info = streams.grid_states.cache_info()
        assert info.currsize <= info.maxsize
        assert [metric_noise(0, trial, 3, 1) for trial in range(0, 600, 37)] == first

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            metric_noise(0, -1, 3, 0)


class TestSample:
    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(st.sampled_from([0, 3, 2**40 + 1]), st.integers(0, 700)),
            min_size=1,
            max_size=12,
        )
    )
    def test_any_access_order(self, calls):
        space = small_space()
        got = [sample(space, seed, index) for seed, index in calls]
        assert got == [fresh_sample(space, seed, index) for seed, index in calls]

    def test_block_edges_reversed_and_wide_indices(self):
        space = small_space()
        indices = [0, 63, 64, 127, 128, 511, 512, 2**32 - 1, 2**32 + 7][::-1]
        expected = [fresh_sample(space, 9, i) for i in indices]
        assert [sample(space, 9, i) for i in indices] == expected


class TestBounds:
    def test_caches_stay_bounded_after_20k_keys(self):
        space = small_space()
        for trial in range(20_000):
            metric_noise(11, trial, 1, trial % 2)
        for index in range(0, 20_000, 5):
            sample(space, 11, index)
        info = streams.grid_states.cache_info()
        assert info.currsize <= info.maxsize

    def test_scan_states_match_fresh_draws_and_are_dropped(self, monkeypatch):
        problem = make_problem("robustness-like", 0)
        # Nothing is feasible, so the scan visits every candidate: over two chunks.
        problem.constraint = ConstraintSpec(-1e9)
        asha = functools.partial(AshaScheduler, AshaConfig(problem.space.max_iterations))
        tile_lookups = []

        def scan(*args):
            before = streams.grid_states.cache_info()
            result = post_hoc_feasibility_scan(*args)
            after = streams.grid_states.cache_info()
            tile_lookups.append(after.hits + after.misses - before.hits - before.misses)
            return result

        monkeypatch.setattr(simulate, "post_hoc_feasibility_scan", scan)
        result = run_experiment(problem, asha, budget=3000.0, max_concurrent=4, seed=0)
        assert tile_lookups == [0]  # the scan derives its own states
        assert simulate._scan_states == {}
        assert result.scan.evaluations > simulate._TILE_KEYS
        for record in result.history.records[-result.scan.evaluations :]:
            curve = problem.curve_for(sample(problem.space, 0, record.trial_id))
            noise = fresh_noise(0, record.trial_id, record.iteration, 1)
            level = constraint_curve_value(curve, record.iteration)
            assert record.constraint_value == level + curve.constraint_noise * noise
