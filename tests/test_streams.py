"""Batched seeding against numpy's own: every derived state and every draw
equals that of a fresh ``PCG64(SeedSequence(seed, spawn_key=key))``."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace_hpo import search_space, simulate, streams
from ace_hpo.history import ConstraintSpec
from ace_hpo.schedulers import AshaConfig, AshaScheduler, post_hoc_feasibility_scan
from ace_hpo.search_space import Configuration, ParamKind, ParamSpec, SearchSpace, sample
from ace_hpo.simulate import constraint_curve_value, make_problem, metric_noise, run_experiment
from ace_hpo.streams import Draws, grid_draws, seed_draws

WORD = st.integers(0, 2**32 - 1)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def fresh_generator(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def fresh_state(seed, key):
    state = fresh_generator(seed, key).bit_generator.state["state"]
    return (state["state"], state["inc"])


def derived_states(seed, keys):
    rows = seed_draws(seed, keys).states.T.tolist()
    return [(hi << 64 | lo, inc_hi << 64 | inc_lo) for hi, lo, inc_hi, inc_lo in rows]


def generator_with(row):
    """A new generator holding one state row (state high, state low, inc high, inc low)."""
    bit_generator = np.random.PCG64()
    state_hi, state_lo, inc_hi, inc_lo = row
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


def crafted_draws(words):
    """Draws whose stream i outputs words[i] first: its state steps (inc 1) onto
    state words[i], whose output is itself as the high half is 0."""
    states = []
    for word in words:
        state = (word - 1) * pow(PCG_MULT, -1, 2**128) % 2**128
        states.append([state >> 64, state & (2**64 - 1), 0, 1])
    seed_draws(0, [(0,)])  # recovers the ziggurat tables
    first = np.array(words, np.uint64)
    return Draws(streams._normals(first), first, np.array(states, np.uint64).T)


def fresh_param(spec, rng):
    """A parameter value drawn with numpy's own generator calls."""
    if spec.kind is ParamKind.UNIFORM_REAL:
        return float(rng.uniform(spec.low, spec.high))
    if spec.kind is ParamKind.LOG_UNIFORM_REAL:
        return float(math.exp(rng.uniform(math.log(spec.low), math.log(spec.high))))
    if spec.kind is ParamKind.LOG_UNIFORM_INT:
        raw = math.floor(math.exp(rng.uniform(math.log(spec.low), math.log(spec.high))))
        return int(min(max(raw, spec.low), spec.high))
    return spec.choices[int(rng.integers(len(spec.choices)))]


def fresh_noise(seed, trial_id, iteration, tag):
    return float(fresh_generator(seed, (trial_id, iteration, tag)).standard_normal())


def fresh_sample(space, seed, trial_index):
    values = {
        spec.name: fresh_param(spec, fresh_generator(seed, (trial_index, j)))
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

    # Each entry point's range check, called with `word` as one of its key words.
    OUT_OF_RANGE = {
        "seed_draws": lambda word: seed_draws(3, [(1, word)]),
        "grid first row": lambda word: grid_draws(3, word, 1, 0, 1),
        "grid last row": lambda word: grid_draws(3, word - 1, 2, 0, 1),
        "grid first column": lambda word: grid_draws(3, 0, 1, word, 1),
        "grid last column": lambda word: grid_draws(3, 0, 1, word - 1, 2),
        "grid tail": lambda word: grid_draws(3, 0, 1, 0, 1, (word,)),
        "sample index": lambda word: sample(small_space(), 3, word),
        "noise trial": lambda word: metric_noise(3, word, 1, 0),
        "noise iteration": lambda word: metric_noise(3, 0, word, 0),
        "noise tag": lambda word: metric_noise(3, 0, 1, word),
    }

    @pytest.mark.parametrize("draw", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_key_words_outside_32_bits_raise(self, draw):
        for word in (-1, 2**32):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                draw(word)

    def test_widest_key_words_match_numpy(self):
        # The widest words still draw numpy's own streams; wide seeds stay allowed.
        space, top = small_space(), 2**32 - 1
        assert derived_states(2**70, [(top, top)]) == [fresh_state(2**70, (top, top))]
        grid = grid_draws(3, top, 1, top, 1, (top,))
        assert grid.normal(0) == float(fresh_generator(3, (top, top, top)).standard_normal())
        assert sample(space, 3, top) == fresh_sample(space, 3, top)
        assert metric_noise(3, top, top, top) == fresh_noise(3, top, top, top)

    def test_drift_guard_names_numpy_version(self, monkeypatch):
        monkeypatch.setattr(streams, "_tables", None)
        monkeypatch.setattr(streams, "_MULT_B", streams._MULT_B ^ 1)
        streams._prefix.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
                seed_draws(0, [(1, 2)])
        finally:
            streams._prefix.cache_clear()


class TestFirstDraws:
    """Each value Draws reads from a first word, and each fallback, against numpy."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        keys=st.lists(
            st.tuples(WORD, WORD, st.integers(0, 3)), min_size=1, max_size=10
        ),
        low=st.floats(-1e6, 1e6),
        width=st.floats(1e-6, 1e6),
        count=st.integers(1, 2**32 - 1),
    )
    def test_matches_fresh_generators(self, seed, keys, low, width, count):
        draws = seed_draws(seed, keys)
        for i, key in enumerate(keys):
            high = low + width
            assert draws.words.item(i) == int(fresh_generator(seed, key).bit_generator.random_raw())
            assert draws.normal(i) == float(fresh_generator(seed, key).standard_normal())
            uniform = fresh_generator(seed, key).uniform(low, high)
            assert draws.uniform(i, low, high) == float(uniform)
            assert draws.integers(i, count) == int(fresh_generator(seed, key).integers(count))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        row_start=st.sampled_from([0, 63, 511, 512, 2**32 - 9]) | st.integers(0, 2**32 - 9),
        rows=st.integers(1, 9),
        col_start=st.sampled_from([0, 1, 255, 2**32 - 9]) | st.integers(0, 2**32 - 9),
        cols=st.integers(1, 9),
        tail=st.lists(WORD, max_size=2),
    )
    def test_grids_across_tile_edges(self, seed, row_start, rows, col_start, cols, tail):
        grid = grid_draws(seed, row_start, rows, col_start, cols, tuple(tail))
        keys = [
            (row, col, *tail)
            for row in range(row_start, row_start + rows)
            for col in range(col_start, col_start + cols)
        ]
        expected = seed_draws(seed, keys)
        assert grid.states.T.tolist() == expected.states.T.tolist()
        for i, key in enumerate(keys):
            assert grid.normal(i) == float(fresh_generator(seed, key).standard_normal())

    @staticmethod
    def noise_keys_by_path(seed, count=5):
        """(trial, 1, 1) noise keys whose first word takes each ziggurat fallback."""
        keys = [(trial, 1, 1) for trial in range(1 << 16)]
        words = seed_draws(seed, keys).words
        layer, rabs = words & 0xFF, words >> 9 & (2**52 - 1)
        rejected = rabs >= streams._tables[1][layer]
        paths = {
            "tail": rejected & (layer == 0),
            "layer 1": layer == 1,
            "wedge": rejected & (layer > 1),
        }
        return {path: [keys[i] for i in np.flatnonzero(hit)[:count]] for path, hit in paths.items()}

    def test_ziggurat_fallbacks_match_fresh_generators(self):
        for path, keys in self.noise_keys_by_path(13).items():
            assert len(keys) == 5, path
            streams.grid_draws.cache_clear()
            expected = [fresh_noise(13, *key) for key in keys]
            assert [metric_noise(13, *key) for key in keys] == expected

    def test_most_normals_take_the_first_word(self):
        normals = seed_draws(3, [(trial, 7) for trial in range(20_000)]).normals
        bounds = streams._tables[1][:256]
        assert [idx for idx in range(256) if not bounds[idx]] == [1]  # ki is 0 in the top layer
        assert np.isnan(normals).mean() < 0.02

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1])
    def test_lemire_rejections_fall_back(self, count):
        # A zero low half leaves a remainder below count; 3 * 0xAAAAAAAB is 1 mod 2**32.
        words = [0, 0xFFFFFFFF_00000000, 0xAAAAAAAB, 2**64 - 1, 2**63 | 5]
        draws = crafted_draws(words)
        got = [draws.integers(i, count) for i in range(len(words))]
        assert got == [int(generator_with(row).integers(count)) for row in draws.states.T.tolist()]

    def test_lemire_rejection_draws_again(self):
        # numpy rejects the low half 0 for 3 options and takes the high half: 2, not 0.
        assert crafted_draws([0xFFFFFFFF_00000000]).integers(0, 3) == 2

    def test_one_option_choice(self):
        space = SearchSpace(
            (
                ParamSpec("rounds", ParamKind.LOG_UNIFORM_INT, 4, 64, iteration_axis=True),
                ParamSpec("only", ParamKind.CHOICE, choices=("x",)),
            )
        )
        expected = [fresh_sample(space, 2, i) for i in range(130)]
        assert [sample(space, 2, i) for i in range(130)] == expected
        assert crafted_draws([0, 2**64 - 1]).integers(0, 1) == 0

    def test_log_uniform_int_at_either_bound(self):
        # exp(log(5)) < 5 rounds the lowest draw down to 4, clamped up to 5; the
        # highest draw of [5, 6] rounds up to 6 itself.
        spec = ParamSpec("width", ParamKind.LOG_UNIFORM_INT, 5, 6)
        draws = crafted_draws([0, 2**64 - 1])
        got = [search_space._draw_param(search_space._table_entry(spec), draws, i) for i in range(2)]
        assert got == [fresh_param(spec, generator_with(row)) for row in draws.states.T.tolist()]
        assert got == [5, 6]

    def test_table_guard_names_numpy_version(self, monkeypatch):
        recover = streams._recover_tables

        def off_by_one_ulp():
            wi, bounds = recover()
            wi[77] = math.nextafter(wi[77], 1.0)
            return wi, bounds

        monkeypatch.setattr(streams, "_tables", None)
        monkeypatch.setattr(streams, "_recover_tables", off_by_one_ulp)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            seed_draws(0, [(1, 2)])


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
            (2**32 - 1, 2), (4, 2**32 - 1),              # the widest words
        ]
    ]

    def test_matches_fresh_generator_forward_and_reversed(self):
        for keys in (self.EDGE_KEYS, self.EDGE_KEYS[::-1]):
            streams.grid_draws.cache_clear()
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
        info = streams.grid_draws.cache_info()
        assert info.currsize <= info.maxsize
        assert [metric_noise(0, trial, 3, 1) for trial in range(0, 600, 37)] == first


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
        indices = [0, 63, 64, 127, 128, 511, 512, 2**32 - 64, 2**32 - 1][::-1]
        expected = [fresh_sample(space, 9, i) for i in indices]
        assert [sample(space, 9, i) for i in indices] == expected


class TestBounds:
    def test_caches_stay_bounded_after_20k_keys(self):
        space = small_space()
        for trial in range(20_000):
            metric_noise(11, trial, 1, trial % 2)
        for index in range(0, 20_000, 5):
            sample(space, 11, index)
        info = streams.grid_draws.cache_info()
        assert info.currsize <= info.maxsize

    def test_scan_states_match_fresh_draws_without_tile_lookups(self, monkeypatch):
        problem = make_problem("robustness-like", 0)
        # Nothing is feasible, so the scan visits every candidate: over two chunks.
        problem.constraint = ConstraintSpec(-1e9)
        asha = functools.partial(AshaScheduler, AshaConfig(problem.spec.space.max_iterations))
        tile_lookups = []

        def scan(*args):
            before = streams.grid_draws.cache_info()
            result = post_hoc_feasibility_scan(*args)
            after = streams.grid_draws.cache_info()
            tile_lookups.append(after.hits + after.misses - before.hits - before.misses)
            return result

        monkeypatch.setattr(simulate, "post_hoc_feasibility_scan", scan)
        result = run_experiment(problem, asha, budget=3000.0, max_concurrent=4, seed=0)
        assert tile_lookups == [0]  # the scan derives its own states
        scan = [r for r in result.history.records if r.action is None]
        assert len(scan) > simulate._TILE_KEYS
        for record in scan:
            curve = problem.curve_for(sample(problem.spec.space, 0, record.trial_id))
            noise = fresh_noise(0, record.trial_id, record.iteration, 1)
            level = constraint_curve_value(curve, record.iteration)
            assert record.constraint_value == level + curve.constraint_noise * noise

    def test_scan_normals_are_the_loop_draws_in_candidate_order(self):
        # Keys out of order and over a chunk boundary: each normal is metric_noise's for its key.
        rng = np.random.default_rng(3)
        keys = zip(rng.integers(0, 5000, 600).tolist(), rng.integers(1, 300, 600).tolist())
        candidates = [(trial_id, iteration, 0.0) for trial_id, iteration in keys]
        normals = list(simulate._scan_normals(7, candidates))
        tag = simulate._CONSTRAINT_TAG
        assert normals == [metric_noise(7, t_id, t, tag) for t_id, t, _ in candidates]
