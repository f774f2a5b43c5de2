"""Sparsity allocation: worked examples, exact budgets, caps, invariance."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsefine.allocation import (
    LayerAllocation,
    SparsityPlan,
    _largest_remainder,
    _proportional_fill,
    allocate_sparsity,
    min_keep,
    round_half_up,
    uniform_plan,
    validate_plan,
)
from coarsefine.errors import FeasibilityError, InputError
from coarsefine.localprune import sequential_prune
from coarsefine.model import CalibrationSet
from coarsefine.scoring import ScoreMap

from conftest import tiny_linear_model


def scores_for(model, values):
    names = [l.name for l in model.prunable_layers()]
    return ScoreMap(entries=dict(zip(names, map(float, values))), method="magnitude")


def chain_model(col_sizes):
    """Layers [c0 x 1], [c1 x c0], ...: layer i holds c_i * c_{i-1} weights."""
    weights = []
    prev = 1
    for c in col_sizes:
        weights.append(np.ones((c, prev)))
        prev = c
    return tiny_linear_model(weights)


class TestWorkedExamples:
    def test_equal_scores_recover_uniform(self):
        # two layers of exactly 100 weights each: [100 x 1] then [1 x 100]
        model = tiny_linear_model([np.ones((100, 1)), np.ones((1, 100))])
        plan = allocate_sparsity(scores_for(model, [1.0, 1.0]), model, 0.5, 1.0)
        assert plan.per_layer["L0"].keep_count == 50
        assert plan.per_layer["L1"].keep_count == 50
        assert plan.per_layer["L0"].sparsity == pytest.approx(0.5)

    def test_three_to_one_split(self):
        model = tiny_linear_model([np.ones((100, 1)), np.ones((1, 100))])
        plan = allocate_sparsity(scores_for(model, [3.0, 1.0]), model, 0.5, 1.0)
        assert plan.per_layer["L0"].keep_count == 75
        assert plan.per_layer["L1"].keep_count == 25
        assert plan.per_layer["L0"].sparsity == pytest.approx(0.25)
        assert plan.per_layer["L1"].sparsity == pytest.approx(0.75)

    def test_three_to_one_split_with_cap(self):
        model = tiny_linear_model([np.ones((100, 1)), np.ones((1, 100))])
        plan = allocate_sparsity(scores_for(model, [3.0, 1.0]), model, 0.5, 0.6)
        assert plan.per_layer["L0"].keep_count == 55
        assert plan.per_layer["L1"].keep_count == 45
        assert plan.per_layer["L0"].sparsity == pytest.approx(0.45)
        assert plan.per_layer["L1"].sparsity == pytest.approx(0.55)
        assert max(a.sparsity for a in plan.per_layer.values()) <= 0.6 + 1e-12


def random_instance(rng):
    n_layers = rng.integers(2, 6)
    cols = rng.integers(5, 60, size=n_layers)
    model = chain_model(list(map(int, cols)))
    scores = rng.uniform(0.0, 10.0, size=n_layers)
    if scores.sum() == 0:
        scores[0] = 1.0
    p = float(rng.uniform(0.0, 0.95))
    p_max = float(min(1.0, p + rng.uniform(0.05, 1.0 - p)))
    if p_max <= p:
        p_max = min(1.0, p + 0.05)
    return model, scores_for(model, scores), p, p_max


class TestInvariants:
    def test_exact_budget_and_caps_over_random_instances(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 300:
            model, scores, p, p_max = random_instance(rng)
            try:
                plan = allocate_sparsity(scores, model, p, p_max)
            except FeasibilityError:
                continue
            assert validate_plan(plan, model) == []
            n_total = model.num_prunable_weights()
            assert plan.keep_total() == round_half_up((1 - p) * n_total)
            for name, a in plan.per_layer.items():
                size = model.layer(name).size
                assert a.keep_count >= math.ceil((1 - p_max) * size)
                assert a.keep_count <= size
            checked += 1

    def test_scale_invariance_power_of_two_is_bit_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            model, scores, p, p_max = random_instance(rng)
            scaled = ScoreMap(
                entries={k: v * 2.0**37 for k, v in scores.entries.items()},
                method=scores.method,
            )
            try:
                a = allocate_sparsity(scores, model, p, p_max)
                b = allocate_sparsity(scaled, model, p, p_max)
            except FeasibilityError:
                continue
            assert a == b

    def test_scale_invariance_arbitrary_constant(self):
        rng = np.random.default_rng(2)
        for c in (1e-6, 1.0, 1e6, 3.7):
            for _ in range(30):
                model, scores, p, p_max = random_instance(rng)
                scaled = ScoreMap(
                    entries={k: v * c for k, v in scores.entries.items()},
                    method=scores.method,
                )
                try:
                    a = allocate_sparsity(scores, model, p, p_max)
                    b = allocate_sparsity(scaled, model, p, p_max)
                except FeasibilityError:
                    continue
                assert a == b

    def test_monotonicity_in_score(self):
        model = tiny_linear_model([np.ones((40, 1)), np.ones((1, 40))])
        base = allocate_sparsity(scores_for(model, [2.0, 3.0]), model, 0.5, 1.0)
        bumped = allocate_sparsity(scores_for(model, [2.5, 3.0]), model, 0.5, 1.0)
        assert bumped.per_layer["L0"].keep_count >= base.per_layer["L0"].keep_count

    @given(
        sizes=st.lists(st.integers(4, 40), min_size=2, max_size=5),
        raw_scores=st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5),
        p=st.floats(0.0, 0.9),
        cap_gap=st.floats(0.05, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_budget_and_caps(self, sizes, raw_scores, p, cap_gap):
        model = chain_model(sizes)
        names = [l.name for l in model.prunable_layers()]
        scores = ScoreMap(
            entries={n: raw_scores[i % len(raw_scores)] for i, n in enumerate(names)},
            method="magnitude",
        )
        p_max = min(1.0, p + cap_gap)
        try:
            plan = allocate_sparsity(scores, model, p, p_max)
        except FeasibilityError:
            return
        assert validate_plan(plan, model) == []
        assert plan.keep_total() == round_half_up(
            (1 - p) * model.num_prunable_weights()
        )


class TestBlockGranularity:
    def make_blocked(self):
        from coarsefine.model import Block, LayerSpec, ModelGraph

        blocks = [
            Block("blk_a", [
                LayerSpec("a1", "linear", np.ones((30, 1))),
                LayerSpec("a2", "linear", np.ones((20, 30))),
            ]),
            Block("blk_b", [
                LayerSpec("b1", "linear", np.ones((40, 20))),
            ]),
        ]
        return ModelGraph(blocks=blocks, head="mse")

    def test_layers_share_the_block_ratio(self):
        model = self.make_blocked()
        scores = ScoreMap(
            entries={"a1": 1.0, "a2": 1.0, "b1": 6.0}, method="magnitude"
        )
        plan = allocate_sparsity(scores, model, 0.5, 1.0, granularity="block")
        # members of blk_a share one ratio up to integer rounding
        pa1 = plan.per_layer["a1"].sparsity
        pa2 = plan.per_layer["a2"].sparsity
        assert abs(pa1 - pa2) <= 1.0 / 30 + 1.0 / 600 + 1e-9
        assert validate_plan(plan, model) == []

    def test_block_scores_pool_member_scores(self):
        model = self.make_blocked()
        # identical totals at block level must give identical block keeps
        s1 = ScoreMap(entries={"a1": 1.0, "a2": 3.0, "b1": 4.0}, method="magnitude")
        s2 = ScoreMap(entries={"a1": 3.0, "a2": 1.0, "b1": 4.0}, method="magnitude")
        p1 = allocate_sparsity(s1, model, 0.5, 1.0, granularity="block")
        p2 = allocate_sparsity(s2, model, 0.5, 1.0, granularity="block")
        keep_a_1 = p1.per_layer["a1"].keep_count + p1.per_layer["a2"].keep_count
        keep_a_2 = p2.per_layer["a1"].keep_count + p2.per_layer["a2"].keep_count
        assert keep_a_1 == keep_a_2


class TestValidation:
    def test_validate_flags_keep_total_mismatch(self):
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        plan = allocate_sparsity(scores_for(model, [1.0, 1.0]), model, 0.5, 1.0)
        plan.per_layer["L0"].keep_count += 1
        msgs = validate_plan(plan, model)
        assert any("keep-total mismatch" in m for m in msgs)

    def test_validate_flags_cap_violation(self):
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        plan = allocate_sparsity(scores_for(model, [1.0, 1.0]), model, 0.5, 0.6)
        plan.per_layer["L0"].keep_count = 2
        plan.per_layer["L0"].sparsity = 0.8
        plan.per_layer["L1"].keep_count = 8
        plan.per_layer["L1"].sparsity = 0.2
        msgs = validate_plan(plan, model)
        assert any("cap exceeded" in m for m in msgs)

    # a corruption of a valid plan and the violation it must report
    CORRUPTIONS = {
        "unknown layer": (lambda plan: plan.per_layer.update(X=LayerAllocation(0.5, 5, 10)),
                          "unknown layer: plan entry 'X' not prunable in model"),
        "missing layer": (lambda plan: plan.per_layer.pop("L1"),
                          "missing layer: 'L1' has no plan entry"),
        "n_select mismatch": (lambda plan: setattr(plan, "n_select", 11),
                              "n_select mismatch: plan says 11, model implies 10"),
        "size mismatch": (lambda plan: setattr(plan.per_layer["L0"], "size", 11),
                          "L0: recorded size 11 != model size 10"),
        "keep out of range": (lambda plan: setattr(plan.per_layer["L0"], "keep_count", -1),
                              "L0: keep_count -1 out of range"),
    }

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_violation_is_reported_and_refused_by_the_fine_pass(self, corruption):
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        plan = allocate_sparsity(scores_for(model, [1.0, 1.0]), model, 0.5, 1.0)
        change, message = self.CORRUPTIONS[corruption]
        change(plan)
        assert message in validate_plan(plan, model)
        batch = CalibrationSet([(np.ones(1), np.ones(1))])
        with pytest.raises(InputError, match=r"^invalid plan: .*" + re.escape(message)):
            sequential_prune(model, plan, batch, "wanda")

    @pytest.mark.parametrize("sparsity", [math.nan, -math.inf, math.inf, -0.1])
    def test_non_finite_or_negative_sparsity_is_a_violation(self, sparsity):
        # a plan read from JSON may hold these; rounding them would raise
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        plan = allocate_sparsity(scores_for(model, [1.0, 1.0]), model, 0.5, 0.6)
        plan.per_layer["L0"].sparsity = sparsity
        assert [m for m in validate_plan(plan, model) if m.startswith("L0")] == [
            f"L0: cap exceeded (sparsity {sparsity} not in [0, p_max 0.6])"
        ]

    def test_one_ulp_cap_holds_as_recorded(self):
        # 720 * (1 - p_max) lies just above 330, but the float product is
        # 330.0: a keep of 330 would record sparsity 0.5416666666666667
        p_max = 0.5416666666666666
        model = tiny_linear_model([np.ones((360, 2)), np.ones((1, 360))])
        scores = scores_for(model, [0.0, 1.0])
        plan = allocate_sparsity(scores, model, 0.5, p_max)
        assert plan.per_layer["L0"].keep_count == 331
        assert all(a.sparsity <= p_max for a in plan.per_layer.values())
        assert validate_plan(plan, model) == []
        # the minimum keeps 331 + 166 exceed n_select = 495
        with pytest.raises(FeasibilityError):
            allocate_sparsity(scores, model, 0.5415, p_max)
        # the keep the float ceiling gave is flagged from the recorded values
        plan.per_layer["L0"] = LayerAllocation(1.0 - 330 / 720, 330, 720)
        plan.per_layer["L1"] = LayerAllocation(1.0 - 210 / 360, 210, 360)
        assert [m for m in validate_plan(plan, model) if "cap exceeded" in m] == [
            "L0: cap exceeded (sparsity 0.5416666666666667 not in [0, p_max "
            "0.5416666666666666])"
        ]

    @given(
        sizes=st.lists(st.integers(1, 2000), min_size=2, max_size=4),
        k_frac=st.floats(0.0, 1.0),
        ulps=st.sampled_from([-1, 0, 1]),
        p=st.floats(0.0, 0.95),
        raw_scores=st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=2, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_caps_one_ulp_from_a_layer_ratio(self, sizes, k_frac, ulps, p, raw_scores):
        # p_max = 1 - k/s for one layer size s, moved by at most one ulp
        s = sizes[0]
        p_max = 1.0 - round(k_frac * s) / s
        p_max = p_max if ulps == 0 else math.nextafter(p_max, ulps * math.inf)
        if not p < p_max <= 1.0:
            return
        for size in sizes:
            keep = min_keep(size, p_max)
            assert 1.0 - keep / size <= p_max
            assert keep == 0 or 1.0 - (keep - 1) / size > p_max
        if not any(raw_scores):
            return
        # two layers of the first two sizes
        model = tiny_linear_model([np.ones((1, sizes[0])), np.ones((sizes[1], 1))])
        try:
            plan = allocate_sparsity(scores_for(model, raw_scores), model, p, p_max)
        except FeasibilityError:
            return
        assert validate_plan(plan, model) == []

    def test_all_zero_scores_rejected(self):
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        with pytest.raises(InputError):
            allocate_sparsity(scores_for(model, [0.0, 0.0]), model, 0.5, 1.0)

    def test_infeasible_cap_rejected(self):
        # N_select = round(4.5) = 5 but the pre-picks need ceil(1.47) = 2
        # per 3-weight layer, i.e. 6 > 5
        model = tiny_linear_model([np.ones((3, 1)), np.ones((1, 3)), np.ones((3, 1))])
        with pytest.raises(FeasibilityError):
            allocate_sparsity(
                scores_for(model, [1.0, 1.0, 1.0]), model, 0.5, 0.51
            )

    def test_bad_targets_rejected(self):
        model = tiny_linear_model([np.ones((10, 1))])
        with pytest.raises(InputError):
            allocate_sparsity(scores_for(model, [1.0]), model, 1.0, 1.0)
        with pytest.raises(InputError):
            allocate_sparsity(scores_for(model, [1.0]), model, 0.5, 0.4)

    def test_subnormal_and_huge_scores_handled(self):
        # found by hypothesis: a subnormal top score used to overflow the
        # power-of-two canonical rescale
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        for top in (2.225073858507203e-309, 1e308):
            plan = allocate_sparsity(
                scores_for(model, [top, top / 2]), model, 0.5, 1.0
            )
            assert plan.keep_total() == 10
        assert validate_plan(plan, model) == []

    def test_scores_must_cover_exactly_the_prunable_layers(self):
        from coarsefine.errors import UnknownLayerError
        from coarsefine.model import Block, LayerSpec, ModelGraph

        model = ModelGraph(blocks=[
            Block("blk_a", [
                LayerSpec("a1", "linear", np.ones((10, 1))),
                LayerSpec("a2", "linear", np.ones((10, 10))),
                LayerSpec("fz", "linear", np.ones((10, 10)), frozen=True),
            ]),
            Block("blk_b", [LayerSpec("b1", "linear", np.ones((10, 10)))]),
        ], head="mse")
        full = {"a1": 1.0, "a2": 1.0, "b1": 1.0}
        bad_maps = {
            "missing a2": {"a1": 1.0, "b1": 1.0},
            "stray frozen fz": {**full, "fz": 50.0},
            "stray unknown": {**full, "nope": 1.0},
            "empty": {},
        }
        for granularity in ("layer", "block"):
            plan = allocate_sparsity(
                ScoreMap(entries=full, method="magnitude"), model, 0.5, 1.0, granularity
            )
            assert validate_plan(plan, model) == []
            for case, entries in bad_maps.items():
                with pytest.raises(UnknownLayerError):
                    allocate_sparsity(
                        ScoreMap(entries=entries, method="magnitude"),
                        model, 0.5, 1.0, granularity,
                    )
                    pytest.fail(f"{case} accepted at {granularity} granularity")

    def test_layer_collapse_with_no_cap(self):
        # one layer hoards the whole budget when p_max = 1
        model = tiny_linear_model([np.ones((100, 1)), np.ones((1, 100))])
        scores = scores_for(model, [1e9, 1e-9])
        plan = allocate_sparsity(scores, model, 0.5, 1.0)
        assert plan.per_layer["L0"].keep_count == 100
        assert plan.per_layer["L1"].keep_count == 0  # collapsed
        capped = allocate_sparsity(scores, model, 0.5, 0.6)
        assert capped.per_layer["L1"].keep_count >= 40  # pre-pick saves it


class TestUniformPlan:
    def test_uniform_plan_hits_p_per_layer(self):
        model = tiny_linear_model([np.ones((10, 1)), np.ones((3, 10))])
        plan = uniform_plan(model, 0.5)
        assert plan.keep_total() == round_half_up(0.5 * 40)
        for a in plan.per_layer.values():
            assert abs(a.keep_count - 0.5 * a.size) <= 1.0

    def test_plan_round_trip_json(self, tmp_path):
        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        plan = allocate_sparsity(scores_for(model, [1.0, 2.0]), model, 0.4, 0.9)
        path = plan.save(tmp_path / "plan.json")
        again = SparsityPlan.load(path)
        assert again == plan


class TestUnitPath:
    """Layer granularity is block granularity with one layer per block."""

    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5),
        frozen_after=st.lists(st.booleans(), min_size=5, max_size=5),
        raw_scores=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=5, max_size=5
        ),
        p=st.floats(0.0, 0.95),
        cap_gap=st.floats(0.001, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_layer_blocks_give_the_layer_plan(
        self, sizes, frozen_after, raw_scores, p, cap_gap
    ):
        from coarsefine.model import Block, LayerSpec, ModelGraph

        blocks, prev = [], 1
        for i, size in enumerate(sizes):
            layers = [LayerSpec(f"L{i}", "linear", np.ones((size, prev)))]
            if frozen_after[i]:  # a frozen companion does not change the unit
                layers.append(LayerSpec(f"F{i}", "linear", np.ones((size, size)),
                                        frozen=True))
            blocks.append(Block(f"B{i}", layers))
            prev = size
        model = ModelGraph(blocks=blocks, head="mse")
        scores = ScoreMap(
            entries={f"L{i}": raw_scores[i] for i in range(len(sizes))},
            method="magnitude",
        )
        p_max = min(1.0, p + cap_gap)
        outcomes = []
        for granularity in ("layer", "block"):
            try:
                plan = allocate_sparsity(scores, model, p, p_max, granularity)
                outcomes.append((plan.per_layer, plan.n_select))
            except (FeasibilityError, InputError) as e:
                outcomes.append((type(e), str(e)))
        assert outcomes[0] == outcomes[1]


class TestLargestRemainder:
    def test_rounds_by_largest_remainder(self):
        out = _largest_remainder(np.array([1.2, 0.7, 1.1]), 3, np.array([5, 5, 5]))
        assert out.tolist() == [1, 1, 1]
        out = _largest_remainder(np.array([0.4, 1.6]), 2, np.array([5, 1]))
        assert out.tolist() == [1, 1]

    def test_total_beyond_caps_is_infeasible(self):
        with pytest.raises(FeasibilityError):
            _largest_remainder(np.array([0.0, 0.0]), 5, np.array([2, 2]))


def reference_fill(scores, capacities, budget):
    """A plain-Python proportional fill: clamp every unit whose share
    reaches its headroom and share the rest again until none does, round
    by largest remainder (a stable argsort of the negated remainders, so
    ties go to the lower index, one more per unit, wrapping round the
    units with headroom left), then give what is left once every scored
    unit is full to the rest, by the same fill over their headroom."""
    n = len(scores)
    assigned = [0] * n
    active = [i for i in range(n) if scores[i] > 0]
    remaining = budget
    while remaining > 0 and active:
        denom = np.array([scores[i] for i in active]).sum()
        shares = {i: remaining * (scores[i] / denom) for i in active}
        over = [i for i in active if shares[i] >= capacities[i] - assigned[i]]
        if not over:
            for i in active:
                assigned[i] += min(math.floor(shares[i]), capacities[i] - assigned[i])
            left = budget - sum(assigned)
            rem = np.array([shares[i] - math.floor(shares[i]) for i in active])
            order = [active[j] for j in np.argsort(-rem, kind="stable")]
            while left > 0:
                for i in order:
                    if left > 0 and assigned[i] < capacities[i]:
                        assigned[i] += 1
                        left -= 1
            return assigned
        for i in over:
            assigned[i] = capacities[i]
        remaining = budget - sum(assigned)
        active = [i for i in active if i not in over]
    if remaining > 0:
        room = [c - a for c, a in zip(capacities, assigned)]
        extra = reference_fill([float(r) for r in room], room, remaining)
        assigned = [a + e for a, e in zip(assigned, extra)]
    return assigned


class TestProportionalFill:
    """One ranked largest-remainder pass hits the budget exactly."""

    @given(
        units=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.integers(1, 4).map(float),
                          st.floats(1e-6, 1e6)),
                st.integers(0, 60),
            ),
            min_size=1, max_size=6,
        ),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_exact_within_caps_and_equal_to_the_reference(self, units, fraction):
        scores = np.array([s for s, _ in units])
        capacities = np.array([c for _, c in units], dtype=np.int64)
        budget = int(fraction * int(capacities.sum()))
        out = _proportional_fill(scores, capacities, budget)
        assert int(out.sum()) == budget
        assert ((0 <= out) & (out <= capacities)).all()
        assert out.tolist() == reference_fill(scores.tolist(), capacities.tolist(), budget)
