"""The shared spec-table protocol against the hand-written methods it replaced.

``repro.utils.specs.SpecTable`` derives ``to_spec``, ``from_spec`` and
``with_overrides`` of the five settings types from their dataclass
fields; ``spec_oracle`` keeps the per-type methods they replaced.  For
every input — mappings of known keys with valid and invalid values,
unknown keys, non-mapping inputs and nested ``execution`` tables — both
must reject with the same problem lines in the same order, or build
equal values whose ``to_spec()`` mappings serialise to the same JSON
(same keys, same order, same value types).  ``with_overrides`` must
agree on valid overrides.

The one intended difference, asserted by name below:

* ``non-finite fleet durations`` — a ``[fleet]`` ``lease_ttl_s`` or
  ``poll_interval_s`` of ``nan`` or ``inf``.  The old ``from_spec``
  checked ``value <= 0``, which NaN and infinity pass; ``FleetSettings``
  now rejects them in ``__post_init__`` with the text a non-positive
  value gets.  Those checks moved from ``from_spec`` into the
  constructor, so they also cover values built directly or by
  ``with_overrides``; the old methods, which build through the same
  constructor, show that only as this difference.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import spec_oracle as oracle
from repro.api import SelectionRequest
from repro.core.executor import ExecutionSpec
from repro.experiments.fleet import FleetSettings
from repro.experiments.online import StreamSpec
from repro.serve.schemas import ServeSettings
from repro.utils.specs import SpecError, SpecTable

NAN, INF = float("nan"), float("inf")

#: Per type and key: values its checks accept, then values they reject.
KNOWN = {
    ExecutionSpec: {
        "backend": (["serial", "thread", "process"], ["mpi", "Serial"]),
        "n_jobs": ([1, 4, -1, 0], ["many", 2.5]),
        "distance_backend": (["blockwise", "memmap", "neighbors"], ["dense", "gpu"]),
        "epsilon": ([0.5, 2], [0.0, -1.0, NAN, "wide"]),
        "k_neighbors": ([8, 1], [0, -2, "k"]),
        "metric": (["euclidean", "cosine", "precomputed"], ["manhattan"]),
    },
    StreamSpec: {
        "n_deltas": ([1, 2, 7], [0, -3, 2.5, "4"]),
        "order": (["sorted", "shuffled"], ["random", "Sorted"]),
    },
    FleetSettings: {
        "lease_ttl_s": ([60, 12.5, 0.01], [0, -1, -0.5, "60"]),
        "poll_interval_s": ([0.5, 2, 1e-3], [0, -5, "fast"]),
    },
    ServeSettings: {
        "host": (["127.0.0.1", "0.0.0.0", "example.org"], [""]),
        "port": ([0, 8601, 65535], [65536, -1, "80", 80.0]),
        "workers": ([1, 8], [0, -1, "2"]),
        "max_pending": ([1, 32], [0, 1.5]),
    },
    SelectionRequest: {
        "algorithm": (["fosc", "mpck"], ["kmeans", "FOSC"]),
        "dataset": (["Iris", "wine", "Text", "ALOI"], ["Nope", ""]),
        "scenario": (["labels", "constraints"], ["both"]),
        "amount": ([0.1, 1, 0.5], [0, 1.5, -0.1, NAN, "0.1"]),
        "n_trials": ([1, 3], [0, 1.0]),
        "n_folds": ([2, 4], [1, "4"]),
        "seed": ([0, 7, 20140324], [-1, 2.0]),
        # Nested tables come from their own strategy (``spec_inputs``).
        "execution": ([{}, {"backend": "thread", "n_jobs": 2}, {"distance_backend": "neighbors"},
                       {"metric": "cosine"}, {"metric": "euclidean"}], []),
    },
}

#: Values of the wrong type for any key.
WRONG_TYPES = [None, True, False, 3, 2.5, "x", [], ["x"], {}, {"k": 1}, INF, -INF]

#: Keys no table knows.
UNKNOWN_KEYS = ["typo", "cadence", "Backend", "n-jobs", "name"]

#: Inputs that are not mappings at all.
NON_MAPPINGS = [None, 3, "backend", [], [("backend", "serial")], ("a", 1), {"backend"}]

TYPES = list(KNOWN)


def outcome(build, to_spec):
    """``("built", value, to_spec JSON)`` or ``("rejected", source, problems, message)``."""
    try:
        value = build()
    except SpecError as error:
        return "rejected", error.source, error.problems, str(error)
    except Exception as error:  # both sides must fail the same way
        return "error", type(error), str(error)
    return "built", value, json.dumps(to_spec(value))


def new_outcome(spec_type, raw):
    return outcome(lambda: spec_type.from_spec(raw), lambda value: value.to_spec())


def old_outcome(spec_type, raw):
    old_to_spec, old_from_spec, _ = oracle.METHODS[spec_type]
    return outcome(lambda: old_from_spec(spec_type, raw), old_to_spec)


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def non_finite_fleet_expectation(raw):
    """The library's outcome for a ``[fleet]`` table with non-finite durations.

    The same outcome as the old code gives when each such value is a
    non-positive one (``-1.0``), with the non-finite value in its line.
    ``None`` when ``raw`` holds no non-finite duration.
    """
    if not isinstance(raw, Mapping):
        return None
    durations = [field.name for field in dataclasses.fields(FleetSettings)]
    swapped = {key: value for key, value in raw.items() if key in durations and _non_finite(value)}
    if not swapped:
        return None
    kind, source, problems, _ = old_outcome(
        FleetSettings, {key: -1.0 if key in swapped else value for key, value in raw.items()}
    )
    assert kind == "rejected"
    lines = {
        f"fleet.{key}: must be a positive number of seconds, got -1.0":
        f"fleet.{key}: must be a positive number of seconds, got {value!r}"
        for key, value in swapped.items()
    }
    problems = [lines.get(line, line) for line in problems]
    return "rejected", source, problems, str(SpecError(source, problems))


def assert_equivalent(spec_type, raw) -> None:
    new = new_outcome(spec_type, raw)
    expected = None
    if spec_type is FleetSettings:  # the intended difference
        expected = non_finite_fleet_expectation(raw)
    if expected is None:
        expected = old_outcome(spec_type, raw)
    assert new == expected
    if new[0] == "built":
        value = new[1]
        assert spec_type.from_spec(value.to_spec()) == value  # the round-trip law


# --- Deterministic cases: every value of every key, alone and with an unknown key.


def _single_key_cases():
    for spec_type, keys in KNOWN.items():
        for key, (valid, invalid) in keys.items():
            for value in valid + invalid + WRONG_TYPES:
                yield pytest.param(spec_type, {key: value}, id=f"{spec_type.__name__}-{key}-{value!r}")


@pytest.mark.parametrize("spec_type, raw", list(_single_key_cases()))
def test_every_value_of_every_key(spec_type, raw):
    assert_equivalent(spec_type, raw)
    assert_equivalent(spec_type, {"typo": 1, **raw})
    assert_equivalent(spec_type, {**raw, "cadence": 2})


@pytest.mark.parametrize("spec_type", TYPES, ids=lambda t: t.__name__)
def test_every_key_together(spec_type):
    keys = KNOWN[spec_type]
    pairs = [(valid[-1], (invalid or [None])[0]) for valid, invalid in keys.values()]
    for choice in itertools.product(*pairs):
        raw = dict(zip(keys, choice))
        assert_equivalent(spec_type, raw)
        assert_equivalent(spec_type, {**raw, "typo": 1, "name": "x"})


@pytest.mark.parametrize("spec_type", TYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("raw", NON_MAPPINGS, ids=repr)
def test_non_mapping_inputs(spec_type, raw):
    assert_equivalent(spec_type, raw)


EXECUTION_TABLES = [
    None, 3, "serial", [], {"backend": "mpi"}, {"typo": 1},
    {"epsilon": 0.5, "distance_backend": "memmap"},
    {"distance_backend": "neighbors", "k_neighbors": 0},
    {"metric": "cosine"}, {"backend": "thread", "n_jobs": 2},
]


@pytest.mark.parametrize("execution", EXECUTION_TABLES, ids=repr)
@pytest.mark.parametrize("algorithm", ["fosc", "mpck", "kmeans"])
def test_nested_execution_tables(execution, algorithm):
    assert_equivalent(SelectionRequest, {"algorithm": algorithm, "execution": execution})
    assert_equivalent(
        SelectionRequest, {"typo": 1, "algorithm": algorithm, "dataset": "Text", "execution": execution}
    )


# --- Generated cases.


@st.composite
def table_mappings(draw, spec_type) -> dict:
    keys = KNOWN[spec_type]
    items = []
    for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True)):
        if key == "execution":
            value = draw(st.one_of(table_mappings(ExecutionSpec), st.sampled_from(NON_MAPPINGS)))
        else:
            valid, invalid = keys[key]
            pool = draw(st.sampled_from([valid, valid, invalid or valid, WRONG_TYPES + [NAN]]))
            value = draw(st.sampled_from(pool))
        items.append((key, value))
    for key in draw(st.lists(st.sampled_from(UNKNOWN_KEYS), unique=True, max_size=2)):
        if key not in keys:
            items.append((key, draw(st.sampled_from(WRONG_TYPES))))
    return dict(draw(st.permutations(items)))


def spec_inputs(spec_type):
    return st.one_of(
        table_mappings(spec_type),
        table_mappings(spec_type).map(MappingProxyType),
        st.sampled_from(NON_MAPPINGS),
    )


@pytest.mark.parametrize("spec_type", TYPES, ids=lambda t: t.__name__)
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_generated_inputs(spec_type, data):
    assert_equivalent(spec_type, data.draw(spec_inputs(spec_type)))


@st.composite
def valid_overrides(draw, spec_type) -> tuple[dict, dict]:
    """A valid table mapping and valid (or ``None``) overrides of some of its keys."""
    keys = KNOWN[spec_type]
    some_keys = st.lists(st.sampled_from(sorted(keys)), unique=True)
    base = {key: draw(st.sampled_from(keys[key][0])) for key in draw(some_keys)}
    overrides = {key: draw(st.sampled_from(keys[key][0] + [None])) for key in draw(some_keys)}
    return base, overrides


WITH_OVERRIDES = [spec_type for spec_type in TYPES if oracle.METHODS[spec_type][2] is not None]


@pytest.mark.parametrize("spec_type", WITH_OVERRIDES, ids=lambda t: t.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_with_overrides_agrees_on_valid_overrides(spec_type, data):
    base, overrides = data.draw(valid_overrides(spec_type))
    value = spec_type.from_spec(base)
    old_to_spec, _, old_with_overrides = oracle.METHODS[spec_type]
    new = outcome(lambda: value.with_overrides(**overrides), lambda built: built.to_spec())
    old = outcome(lambda: old_with_overrides(value, **overrides), old_to_spec)
    assert new == old


@pytest.mark.parametrize("spec_type", [ExecutionSpec, SelectionRequest], ids=lambda t: t.__name__)
def test_with_overrides_is_replace_with_the_given_fields(spec_type):
    value = spec_type()
    field = dataclasses.fields(spec_type)[1]
    given_value = KNOWN[spec_type][field.name][0][-1]
    assert value.with_overrides() == value
    assert value.with_overrides(**{field.name: None}) == value
    assert value.with_overrides(**{field.name: given_value}) == dataclasses.replace(
        value, **{field.name: given_value}
    )


# --- The intended difference.


@dataclasses.dataclass(frozen=True)
class _UncheckedFleet:
    """``FleetSettings``' fields without its checks, as the old class had them."""

    lease_ttl_s: float = 60.0
    poll_interval_s: float = 0.5


@pytest.mark.parametrize("key", ["lease_ttl_s", "poll_interval_s"])
@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=repr)
def test_non_finite_fleet_durations_are_the_one_intended_difference(key, value):
    # The old from_spec let NaN and +inf through its ``value <= 0`` check.
    _, old_from_spec, _ = oracle.METHODS[FleetSettings]
    if value > 0 or math.isnan(value):
        assert repr(getattr(old_from_spec(_UncheckedFleet, {key: value}), key)) == repr(value)
    line = f"fleet.{key}: must be a positive number of seconds, got {value!r}"
    with pytest.raises(SpecError) as excinfo:
        FleetSettings.from_spec({key: value, "typo": 1})
    assert excinfo.value.problems[-1] == line
    assert_equivalent(FleetSettings, {key: value, "typo": 1})
    assert_equivalent(FleetSettings, {"lease_ttl_s": value, "poll_interval_s": value})


def test_every_type_uses_the_shared_protocol():
    for spec_type in TYPES:
        assert issubclass(spec_type, SpecTable)
        for method in ("to_spec", "from_spec", "with_overrides"):
            assert method not in vars(spec_type), f"{spec_type.__name__} defines {method} itself"
