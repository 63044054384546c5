import numpy as np
import pytest

from riskctmdp import jsonio
from riskctmdp.model import (CtmdpModel, ModelError, StationaryPolicy,
                             gen_example, parse_policy, validate_model,
                             validate_policy)

TWO_STATE_RAW = {
    "states": ["absorb", "work"],
    "actions": ["a0"],
    "rates": [{"from": "work", "action": "a0", "to": "absorb", "rate": 4.0}],
    "costs": [{"state": "work", "action": "a0", "rate": 1.0}],
}


def test_validate_two_state_caches():
    model = validate_model(TWO_STATE_RAW)
    assert model.states == ("absorb", "work")
    assert model.total_rate(1, 0) == 4.0
    assert model.total_rate(0, 0) == 0.0
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
    assert model.total_rate(2, 0) == 8.0  # rate doubles per level
    assert model.total_rate(4, 0) == 0.0
    assert model.max_total_rate.tolist() == [2.0, 4.0, 8.0, 16.0, 0.0]


def test_total_rate_rejects_inadmissible():
    raw = {**TWO_STATE_RAW,
           "actions": ["a0", "a1"],
           "admissible": {"work": ["a0"], "absorb": ["a0", "a1"]}}
    model = validate_model(raw)
    assert model.total_rate(1, 0) == 4.0
    with pytest.raises(ModelError, match="not admissible"):
        model.total_rate(1, 1)


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


def test_policy_admissibility_checked():
    raw = {**TWO_STATE_RAW,
           "actions": ["a0", "a1"],
           "admissible": {"work": ["a0"], "absorb": ["a0", "a1"]}}
    model = validate_model(raw)
    with pytest.raises(ModelError, match="not admissible"):
        validate_policy(model, StationaryPolicy((0, 1)))
    assert validate_policy(model, StationaryPolicy((1, 0))).choice == (1, 0)


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


@pytest.mark.parametrize("index", [1, -1], ids=["n_actions", "negative"])
def test_admissible_index_out_of_range(index):
    """An index past the last action used to raise a bare IndexError, and
    -1 used to mark the last action admissible."""
    with pytest.raises(ModelError,
                       match=f"index {index} out of range at state 'b'"):
        validate_model(CtmdpModel(states=("a", "b"), actions=("u",),
                                  admissible=((0,), (index,)),
                                  rates=np.zeros((2, 1, 2)),
                                  costs=np.zeros((2, 1))))


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
