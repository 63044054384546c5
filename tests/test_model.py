import warnings

import numpy as np
import pytest

from riskctmdp import jsonio
from riskctmdp.model import (CtmdpModel, ModelError, StationaryPolicy,
                             gen_example, parse_policy, validate_model)
from conftest import OVERFLOWING_MODELS

TWO_STATE_RAW = {
    "states": ["absorb", "work"],
    "actions": ["a0"],
    "rates": [{"from": "work", "action": "a0", "to": "absorb", "rate": 4.0}],
    "costs": [{"state": "work", "action": "a0", "rate": 1.0}],
}


def test_validate_two_state_caches():
    model = validate_model(TWO_STATE_RAW)
    assert model.states == ("absorb", "work")
    assert model.total_rates[1, 0] == 4.0
    assert model.total_rates[0, 0] == 0.0
    assert model.max_total_rate.tolist() == [0.0, 4.0]
    assert model.max_cost_rate.tolist() == [0.0, 1.0]
    # admissible defaults to every action
    assert model.admissible == ((0,), (0,))


@pytest.mark.parametrize("name, value", [
    ("total_rates", np.full((2, 1), 99.0)),
    ("max_total_rate", np.full(2, 99.0)),
    ("max_cost_rate", np.full(2, 99.0))])
def test_derived_arrays_are_not_constructor_arguments(name, value):
    """The model derives these from rates and costs; a value passed in
    would be silently overwritten, so passing one is an error."""
    rates, costs = np.zeros((2, 1, 2)), np.zeros((2, 1))
    rates[1, 0, 0] = 1.0
    with pytest.raises(TypeError, match=name):
        CtmdpModel(states=("absorb", "work"), actions=("a0",),
                   admissible=None, rates=rates, costs=costs,
                   **{name: value})


def test_validate_idempotent():
    model = validate_model(TWO_STATE_RAW)
    again = validate_model(model)
    assert again == model


def test_serialization_round_trip():
    for model in [validate_model(TWO_STATE_RAW),
                  gen_example("pure_birth", {"N": 4, "kappa": 1.0}, 0),
                  gen_example("birth_death",
                              {"levels": 3, "birth": 0.5, "death": 2.0,
                               "cost": 0.25}, 0),
                  gen_example("random", {"n": 5, "m": 2}, 17)]:
        round_tripped = validate_model(jsonio.loads(jsonio.dumps(model.to_dict())))
        assert round_tripped == model


@pytest.mark.parametrize("mutation, fragment", [
    ({"rates": [{"from": "work", "action": "a0", "to": "work", "rate": 1.0}]},
     "self-loop"),
    ({"rates": [{"from": "work", "action": "a0", "to": "absorb", "rate": -2.0}]},
     "negative rate"),
    ({"costs": [{"state": "work", "action": "a0", "rate": -0.5}]},
     "negative cost"),
    ({"costs": [{"state": "work", "action": "a0", "rate": float("inf")}]},
     "infinite cost"),
    ({"costs": [{"state": "work", "action": "a0", "rate": float("nan")}]},
     "NaN cost"),
    ({"rates": [{"from": "nowhere", "action": "a0", "to": "absorb", "rate": 1.0}]},
     "unknown state 'nowhere'"),
    ({"rates": [{"from": "work", "action": "zz", "to": "absorb", "rate": 1.0}]},
     "unknown action 'zz'"),
    ({"costs": [{"state": "work", "action": "zz", "rate": 1.0}]},
     "unknown action 'zz'"),
    ({"admissible": {"work": []}}, "empty admissible set for state 'work'"),
    ({"admissible": {"work": ["zz"]}}, "unknown action 'zz'"),
    ({"admissible": {"ghost": ["a0"]}}, "unknown state 'ghost'"),
    ({"rates": [{"from": "work", "action": "a0", "to": "absorb", "rate": 1.0},
                {"from": "work", "action": "a0", "to": "absorb", "rate": 2.0}]},
     "duplicate rate entry"),
    ({"costs": [{"state": "work", "action": "a0", "rate": 1.0},
                {"state": "work", "action": "a0", "rate": 2.0}]},
     "duplicate cost entry"),
    ({"states": ["absorb", "absorb"]}, "duplicate state"),
    ({"states": []}, "state list is empty"),
    ({"states": "ab"}, "state list must be a list of names, got str"),
    ({"rates": [3]}, "rates entry 3 is not a mapping"),
    ({"rates": {"x": 1}}, '"rates" must be a list of entries'),
    ({"costs": [["work", "a0", 1.0]]}, "costs entry ['work', 'a0', 1.0] is "
                                       "not a mapping"),
    ({"admissible": {"work": 5}},
     "admissible set of state 'work' must be a list of action names"),
    ({"rates": [{"from": ["work"], "action": "a0", "to": "absorb",
                 "rate": 1.0}]}, "unknown state '['work']'"),
    ({"rates": [{"from": "work", "action": "a0", "to": "absorb",
                 "rate": True}]},
     "non-numeric rate at ('work', 'a0', 'absorb'): True"),
    ({"rates": [{"from": "work", "action": "a0", "to": "absorb",
                 "rate": "1.5"}]},
     "non-numeric rate at ('work', 'a0', 'absorb'): '1.5'"),
    ({"costs": [{"state": "work", "action": "a0", "rate": False}]},
     "non-numeric cost at ('work', 'a0'): False"),
    ({"costs": [{"state": "work", "action": "a0", "rate": "1.5"}]},
     "non-numeric cost at ('work', 'a0'): '1.5'"),
])
def test_validation_errors_carry_coordinates(mutation, fragment):
    raw = {**TWO_STATE_RAW, **mutation}
    with pytest.raises(ModelError) as err:
        validate_model(raw)
    assert fragment in str(err.value)


def test_total_rate_pure_birth():
    model = gen_example("pure_birth", {"N": 4, "kappa": 1.0}, 0)
    assert model.total_rates[2, 0] == 8.0  # rate doubles per level
    assert model.total_rates[4, 0] == 0.0
    assert model.max_total_rate.tolist() == [2.0, 4.0, 8.0, 16.0, 0.0]


def test_admissible_restricts_cached_maxima():
    raw = {
        "states": ["absorb", "work"],
        "actions": ["a0", "a1"],
        "admissible": {"work": ["a0"]},
        "rates": [
            {"from": "work", "action": "a0", "to": "absorb", "rate": 4.0},
            {"from": "work", "action": "a1", "to": "absorb", "rate": 100.0},
        ],
        "costs": [
            {"state": "work", "action": "a0", "rate": 1.0},
            {"state": "work", "action": "a1", "rate": 50.0},
        ],
    }
    model = validate_model(raw)
    # inadmissible entries are stored but excluded from the cached maxima
    assert model.max_total_rate[1] == 4.0
    assert model.max_cost_rate[1] == 1.0


def test_gen_two_state_matches_fixture():
    assert gen_example("two_state", {"q": 4, "c": 1}, 123) == \
        validate_model(TWO_STATE_RAW)


def test_gen_deterministic_bytes():
    params = {"n": 3, "m": 2}
    one = jsonio.dumps(gen_example("random", params, 7).to_dict())
    two = jsonio.dumps(gen_example("random", params, 7).to_dict())
    assert one == two
    other = jsonio.dumps(gen_example("random", params, 8).to_dict())
    assert other != one


@pytest.mark.parametrize("kind, params", [
    ("two_state", {"q": 0, "c": 1}),
    ("two_state", {"q": 4}),
    ("two_state", {"q": 4, "c": 1, "bogus": 3}),
    ("pure_birth", {"N": 0}),
    ("pure_birth", {"N": 40}),
    ("birth_death", {"levels": 2, "birth": 1.0, "death": 0.0, "cost": 1.0}),
    ("random", {"n": 1, "m": 2}),
    ("random", {"n": 65, "m": 2}),
    ("random", {"n": 4, "m": 9}),
    ("random", {"n": 4, "m": 2, "rate_scale": 0.0}),
    ("random", {"n": 4, "m": 2, "cost_scale": 1.0}),
    ("nonsense", {}),
])
def test_gen_rejects_bad_params(kind, params):
    with pytest.raises(ModelError):
        gen_example(kind, params, 0)


@pytest.mark.parametrize("kind, params, message", [
    ("pure_birth", {"N": True},
     "generator 'pure_birth' parameter 'N'=True out of range (int in 1..20)"),
    ("birth_death", {"levels": True, "birth": 1.0, "death": 2.0, "cost": 0.5},
     "generator 'birth_death' parameter 'levels'=True out of range "
     "(int in 1..63)"),
    ("random", {"n": True, "m": 2},
     "generator 'random' parameter 'n'=True out of range (int in 2..64)"),
    ("random", {"n": 2, "m": True},
     "generator 'random' parameter 'm'=True out of range (int in 1..8)"),
], ids=["N", "levels", "n", "m"])
def test_gen_refuses_a_bool_for_an_int(kind, params, message):
    """JSON true is a bool, not the int 1."""
    with pytest.raises(ModelError) as err:
        gen_example(kind, params, 0)
    assert str(err.value) == message


@pytest.mark.parametrize("kind, params", [
    ("two_state", {"q": 4, "c": 1}),
    ("pure_birth", {"N": 4, "kappa": 1.0}),
    ("birth_death", {"levels": 4, "birth": 1.0, "death": 2.0, "cost": 0.5}),
    ("random", {"n": 6, "m": 3}),
])
def test_generated_models_keep_zero_cost_absorber(kind, params):
    """Under every policy some state is absorbing at zero cost."""
    model = gen_example(kind, params, 5)
    rng = np.random.default_rng(0)
    policies = [tuple(int(rng.choice(model.admissible[x]))
                      for x in range(model.n_states)) for _ in range(8)]
    policies.append(tuple(acts[0] for acts in model.admissible))
    policies.append(tuple(acts[-1] for acts in model.admissible))
    for choice in policies:
        resting = [x for x in range(model.n_states)
                   if model.total_rates[x, choice[x]] == 0.0
                   and model.costs[x, choice[x]] == 0.0]
        assert resting, (kind, choice)


def test_random_generator_always_has_descent_edges():
    model = gen_example("random", {"n": 8, "m": 3}, 99)
    for x in range(1, model.n_states):
        for a in range(model.n_actions):
            assert model.rates[x, a, :x].sum() > 0.0


def test_policy_parse_and_validate(two_state):
    policy = parse_policy(two_state, {"policy": {"absorb": "a0", "work": "a0"}})
    assert policy.choice == (0, 0)
    assert policy.to_dict(two_state) == {"policy": {"absorb": "a0",
                                                    "work": "a0"}}
    with pytest.raises(ModelError, match="missing state"):
        parse_policy(two_state, {"policy": {"work": "a0"}})
    with pytest.raises(ModelError, match="unknown action"):
        parse_policy(two_state, {"policy": {"absorb": "a0", "work": "zz"}})
    with pytest.raises(ModelError, match='"policy"'):
        parse_policy(two_state, {"values": {}})
    with pytest.raises(ModelError, match="unknown state 'ghost' in policy"):
        parse_policy(two_state, {"policy": {"work": "a0", "absorb": "a0",
                                            "ghost": "zz"}})


def test_state_index(two_state):
    assert two_state.state_index("work") == 1
    with pytest.raises(ModelError, match="unknown state 'ghost'"):
        two_state.state_index("ghost")


def test_policy_that_is_not_a_mapping(two_state):
    with pytest.raises(ModelError, match='"policy" must map state names'):
        parse_policy(two_state, {"policy": ["a0", "a0"]})


@pytest.mark.parametrize("raw, message", [
    ([TWO_STATE_RAW], "expected a model mapping, got list"),
    ({**TWO_STATE_RAW, "admissible": ["a0"]},
     '"admissible" must map state names to action lists'),
], ids=["model-list", "admissible-list"])
def test_model_parts_that_are_not_mappings(raw, message):
    with pytest.raises(ModelError) as err:
        validate_model(raw)
    assert str(err.value) == message


def test_null_admissible_entry_admits_every_action():
    model = validate_model({**TWO_STATE_RAW, "actions": ["a0", "a1"],
                            "admissible": {"work": ["a1"], "absorb": None}})
    assert model.admissible == ((0, 1), (1,))


def test_policy_admissibility_checked():
    raw = {**TWO_STATE_RAW,
           "actions": ["a0", "a1"],
           "admissible": {"work": ["a0"], "absorb": ["a0", "a1"]}}
    model = validate_model(raw)
    with pytest.raises(ModelError, match="not admissible"):
        model.check_policy(StationaryPolicy((0, 1)))
    assert model.check_policy(StationaryPolicy((1, 0))).tolist() == [1, 0]


@pytest.mark.parametrize("choice, message", [
    ((0, 1, 0, 1), "policy action 'a1' is not admissible at state 's1'"),
    ((0, 0, 2, 1), "policy action index 2 out of range at state 's2'"),
    ((0, 1, -1, 0), "policy action 'a1' is not admissible at state 's1'"),
    ((0, 0, 0, -1), "policy action index -1 out of range at state 's3'"),
], ids=["two-inadmissible", "out-of-range-first", "inadmissible-first",
        "negative"])
def test_policy_check_names_the_first_offending_state(choice, message):
    """The whole choice is checked at once; the message names the first
    state in state order that fails either rule."""
    model = CtmdpModel(states=("s0", "s1", "s2", "s3"), actions=("a0", "a1"),
                       admissible=((0, 1), (0,), (0, 1), (0,)),
                       rates=np.zeros((4, 2, 4)), costs=np.zeros((4, 2)))
    with pytest.raises(ModelError) as err:
        model.check_policy(StationaryPolicy(choice))
    assert str(err.value) == message


def test_mask_and_policy_check_match_a_loop_per_state():
    """The admissible mask is one scatter and the policy check one lookup;
    on random non-empty admissible sets (as in test_oracle) both agree with
    a walk over the states."""
    rng = np.random.default_rng(7)
    for n, m in ((1, 1), (2, 3), (9, 1), (16, 4), (64, 8)):
        admissible = [rng.choice(m, rng.integers(1, m + 1),
                                 replace=False).tolist() for _ in range(n)]
        model = CtmdpModel(states=tuple(f"s{i}" for i in range(n)),
                           actions=tuple(f"a{j}" for j in range(m)),
                           admissible=admissible, rates=np.zeros((n, m, n)),
                           costs=np.zeros((n, m)))
        want = np.zeros((n, m), dtype=bool)
        for x, acts in enumerate(admissible):
            want[x, acts] = True
        assert np.array_equal(model.admissible_mask, want)
        for _ in range(20):
            choice = rng.integers(-1, m + 1, n).tolist()
            if rng.random() < 0.5:  # mostly admissible: one state may fail
                choice = [rng.choice(acts) for acts in admissible]
                choice[rng.integers(n)] = int(rng.integers(-1, m + 1))
            choice = tuple(int(a) for a in choice)
            admitted = all(0 <= a < m and want[x, a]
                           for x, a in enumerate(choice))
            try:
                got = model.check_policy(StationaryPolicy(choice))
            except ModelError:
                assert not admitted, choice
            else:
                assert admitted and got.tolist() == list(choice), choice


def test_a_model_is_not_equal_to_a_non_model(two_state):
    assert (two_state == "x") is False
    assert two_state != "x"


def test_models_are_immutable(two_state):
    with pytest.raises(ValueError):
        two_state.rates[1, 0, 0] = 9.0
    with pytest.raises(Exception):
        two_state.states = ("x",)


def test_model_holds_copies_of_the_callers_arrays():
    """A change the caller makes to its arrays after the model is built
    reaches neither the model nor its checks, and the caller's arrays stay
    writable."""
    rates, costs = np.zeros((2, 1, 2)), np.zeros((2, 1))
    rates[1, 0, 0], costs[1, 0] = 4.0, 1.0
    model = CtmdpModel(states=("absorb", "work"), actions=("a0",),
                       admissible=None, rates=rates[:], costs=costs[:])
    rates[1, 0, 0], costs[1, 0] = -3.0, -1.0
    assert model.rates[1, 0, 0] == 4.0 and model.costs[1, 0] == 1.0
    assert rates.flags.writeable and costs.flags.writeable


@pytest.mark.parametrize("admissible, message", [
    (((0,), (1,)), "admissible action index 1 out of range at state 'b'"),
    (((0,), (-1,)), "admissible action index -1 out of range at state 'b'"),
    (((0,), (0, 1), ()),
     "admissible action index 1 out of range at state 'b'"),
    (((0,), (), (1,)), "empty admissible set for state 'b'"),
], ids=["n_actions", "negative", "then-empty", "empty-then-out-of-range"])
def test_admissible_index_out_of_range(admissible, message):
    """An index past the last action used to raise a bare IndexError, and
    -1 used to mark the last action admissible.  The sets are checked at
    once; the message names the first offending state in state order."""
    n = len(admissible)
    with pytest.raises(ModelError) as err:
        validate_model(CtmdpModel(states=("a", "b", "c")[:n], actions=("u",),
                                  admissible=admissible,
                                  rates=np.zeros((n, 1, n)),
                                  costs=np.zeros((n, 1))))
    assert str(err.value) == message


def _arrays(rates=None, costs=None, admissible=((0,), (0,))):
    """Keyword arguments of a two-state, one-action CtmdpModel (states
    'absorb' and 'work', action 'a0') with the given entries changed."""
    r = np.zeros((2, 1, 2))
    c = np.zeros((2, 1))
    for (x, y), value in (rates or {}).items():
        r[x, 0, y] = value
    for x, value in (costs or {}).items():
        c[x, 0] = value
    return dict(states=("absorb", "work"), actions=("a0",),
                admissible=admissible, rates=r, costs=c)


def _rate(value, to="absorb"):
    return {"rates": [{"from": "work", "action": "a0", "to": to,
                       "rate": value}]}


def _cost(value):
    return {"costs": [{"state": "work", "action": "a0", "rate": value}]}


@pytest.mark.parametrize("mutation, arrays, message", [
    (_rate(-1.0), _arrays(rates={(1, 0): -1.0}),
     "negative rate at ('work', 'a0', 'absorb'): -1.0"),
    (_rate(float("nan")), _arrays(rates={(1, 0): np.nan}),
     "NaN rate at ('work', 'a0', 'absorb')"),
    (_rate(float("inf")), _arrays(rates={(1, 0): np.inf}),
     "infinite rate at ('work', 'a0', 'absorb')"),
    (_cost(-0.5), _arrays(costs={1: -0.5}),
     "negative cost at ('work', 'a0'): -0.5"),
    (_cost(float("nan")), _arrays(costs={1: np.nan}),
     "NaN cost at ('work', 'a0')"),
    (_cost(float("inf")), _arrays(costs={1: np.inf}),
     "infinite cost at ('work', 'a0')"),
    (_rate(1.0, to="work"), _arrays(rates={(1, 1): 1.0}),
     "explicit self-loop rate at ('work', 'a0'); the diagonal is implied"),
    ({"admissible": {"work": []}}, _arrays(admissible=((0,), ())),
     "empty admissible set for state 'work'"),
    # a file cannot give a wrong shape: validate_model sizes the arrays
    # from the name lists
    (None, {**_arrays(), "rates": np.zeros((2, 1, 3))},
     "rate/cost array shapes (2, 1, 3) and (2, 1) do not match 2 states "
     "and 1 actions"),
    (None, {**_arrays(), "costs": np.zeros((1, 2))},
     "rate/cost array shapes (2, 1, 2) and (1, 2) do not match 2 states "
     "and 1 actions"),
], ids=["negative-rate", "nan-rate", "inf-rate", "negative-cost", "nan-cost",
        "inf-cost", "self-loop", "empty-admissible", "rates-shape",
        "costs-shape"])
def test_both_routes_give_the_same_message(mutation, arrays, message):
    """Each array rule is checked once, by the CtmdpModel constructor, so a
    model file and a directly built model fail with the same message."""
    if mutation is not None:
        with pytest.raises(ModelError) as err:
            validate_model({**TWO_STATE_RAW, "costs": [], **mutation})
        assert str(err.value) == message
    with pytest.raises(ModelError) as err:
        CtmdpModel(**arrays)
    assert str(err.value) == message


def test_validate_model_returns_a_built_model_as_it_is():
    model = CtmdpModel(**_arrays(rates={(1, 0): 4.0}))
    assert validate_model(model) is model


def test_direct_model_gets_the_name_rules():
    with pytest.raises(ModelError, match="duplicate state identifier 'a'"):
        CtmdpModel(**{**_arrays(), "states": ("a", "a")})
    with pytest.raises(ModelError, match="admissible sets given for 1 "
                                         "states, model has 2"):
        CtmdpModel(**_arrays(admissible=((0,),)))


@pytest.mark.parametrize("key, entry, message", [
    ("rates", {"from": "b", "action": "u", "to": "a", "rate": 10 ** 400},
     "rate at ('b', 'u', 'a') is beyond the float range"),
    ("rates", {"from": "b", "action": "u", "to": "a", "rate": -10 ** 400},
     "rate at ('b', 'u', 'a') is beyond the float range"),
    ("costs", {"state": "b", "action": "u", "rate": 10 ** 400},
     "cost at ('b', 'u') is beyond the float range"),
])
def test_int_beyond_the_float_range_is_a_model_error(key, entry, message):
    first = {"rates": {"from": "a", "action": "u", "to": "b", "rate": 1},
             "costs": {"state": "a", "action": "u", "rate": 2.0}}[key]
    raw = {"states": ["a", "b"], "actions": ["u"], key: [first, entry]}
    with pytest.raises(ModelError) as err:
        validate_model(raw)
    assert str(err.value) == message


@pytest.mark.parametrize("raw, message", OVERFLOWING_MODELS,
                         ids=["total-rate", "weight"])
def test_rates_beyond_the_float_range_are_refused(raw, message):
    """Every rate is finite, but a total rate or a state's weight would
    overflow: the model is refused by name, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError) as err:
            validate_model(raw)
    assert str(err.value) == message
