"""Property-style tests for the plain-data layers the service trusts.

Two serialisation boundaries now carry experiment identity end to end:

- **fault schedules** travel inside sweep specs as dicts/JSON
  (:meth:`FaultSchedule.to_json` / :meth:`from_json`), so a lossy
  round-trip would silently change which faults a cached result claims
  to describe;
- **cache-key canonicalisation** (:mod:`repro.cache.keys`) decides when
  two submitted specs are *the same experiment* — key stability and
  insensitivity to irrelevant representation choices (dict ordering,
  list vs tuple) are exactly what cross-tenant dedup rests on.

Both are checked with randomized hypothesis cases, not hand-picked
examples.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import UncacheableArgument, canonical_blob, task_key
from repro.faults.schedule import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
)

# --------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------- #
_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
_durations = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                       allow_infinity=False)
_fractions = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False,
                       allow_infinity=False)
_slowdowns = st.floats(min_value=1.0, max_value=64.0, allow_nan=False,
                       allow_infinity=False)
_indices = st.lists(st.integers(min_value=0, max_value=511), min_size=0,
                    max_size=6, unique=True)
_labels = st.text(
    alphabet=st.characters(codec="utf-8",
                           blacklist_categories=("Cs",)),
    max_size=24)


@st.composite
def fault_specs(draw):
    kind = draw(st.sampled_from(FAULT_KINDS))
    nodes = draw(_indices)
    if kind in ("node_crash", "correlated_crash") and not nodes:
        nodes = draw(st.lists(st.integers(0, 511), min_size=1,
                              max_size=6, unique=True))
    if kind in ("nic_degrade", "ost_brownout"):
        factor = draw(_fractions)
    elif kind in ("straggler", "mds_brownout"):
        factor = draw(_slowdowns)
    else:
        factor = 1.0
    return FaultSpec(
        kind=kind,
        time=draw(_times),
        duration=draw(_durations),
        nodes=tuple(nodes),
        targets=tuple(draw(_indices)),
        factor=factor,
        stagger=(draw(_times) if kind == "correlated_crash" else 0.0),
        compute_factor=draw(_slowdowns),
        extra_revokes=draw(st.integers(min_value=1, max_value=9)),
        label=draw(_labels),
    )


@st.composite
def fault_schedules(draw):
    return FaultSchedule(
        faults=tuple(draw(st.lists(fault_specs(), max_size=5))),
        name=draw(_labels) or "faults")


#: JSON-shaped spec-ish values: what a submitted sweep spec can contain.
_json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12))
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)


# --------------------------------------------------------------------- #
# FaultSchedule round-trips
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(fault_schedules())
def test_fault_schedule_dict_round_trip(schedule):
    rebuilt = FaultSchedule.from_dict(schedule.to_dict())
    assert rebuilt == schedule


@settings(max_examples=30, deadline=None)
@given(schedule=fault_schedules())
def test_fault_schedule_json_round_trip(tmp_path_factory, schedule):
    path = str(tmp_path_factory.mktemp("sched") / "schedule.json")
    schedule.to_json(path)
    rebuilt = FaultSchedule.from_json(path)
    assert rebuilt == schedule
    # the file itself is canonical: a second dump is byte-identical
    again = str(tmp_path_factory.mktemp("sched") / "again.json")
    rebuilt.to_json(again)
    assert open(path).read() == open(again).read()


@settings(max_examples=30, deadline=None)
@given(fault_schedules())
def test_fault_schedule_dict_form_is_json_safe_and_stable(schedule):
    wire = json.dumps(schedule.to_dict(), sort_keys=True)
    assert FaultSchedule.from_dict(json.loads(wire)) == schedule


@settings(max_examples=30, deadline=None)
@given(fault_schedules())
def test_fault_schedule_folds_into_cache_keys(schedule):
    """Two specs differing only in their fault payloads must key apart;
    the same schedule arriving via dict or JSON must key together."""
    def fn(spec):
        return spec  # any picklable module-level-ish callable works

    base = {"preset": "grid5000", "ncores": 24,
            "strategy": {"kind": "damaris"}}
    with_faults = dict(base, faults=schedule.to_dict())
    rebuilt = dict(
        base,
        faults=FaultSchedule.from_dict(schedule.to_dict()).to_dict())
    key_a = task_key(test_fault_schedule_folds_into_cache_keys,
                     (with_faults,), {}, "fp")
    key_b = task_key(test_fault_schedule_folds_into_cache_keys,
                     (rebuilt,), {}, "fp")
    assert key_a == key_b
    if len(schedule):
        key_plain = task_key(test_fault_schedule_folds_into_cache_keys,
                             (base,), {}, "fp")
        assert key_a != key_plain


# --------------------------------------------------------------------- #
# cache-key canonicalisation
# --------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(_json_values)
def test_canonical_blob_is_deterministic(value):
    assert canonical_blob(value) == canonical_blob(value)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.text(max_size=8), _json_values, max_size=6))
def test_canonical_blob_ignores_dict_insertion_order(mapping):
    reordered = dict(reversed(list(mapping.items())))
    assert canonical_blob(mapping) == canonical_blob(reordered)


@settings(max_examples=80, deadline=None)
@given(st.lists(_json_scalars, max_size=6))
def test_canonical_blob_list_tuple_equivalent(items):
    assert canonical_blob(items) == canonical_blob(tuple(items))


def _strict_eq(a, b):
    """Type-strict structural equality: same type at every node and
    equal values. Python's ``==`` conflates ``False`` with ``0``, ``1``
    with ``1.0`` and ``0.0`` with ``-0.0``; the canonical encoding keeps
    each pair apart, so this is the oracle it must agree with."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_strict_eq, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_strict_eq(a[k], b[k])
                                            for k in a)
    return a == b


@settings(max_examples=80, deadline=None)
@given(_json_values, _json_values)
def test_canonical_blob_distinguishes_distinct_values(a, b):
    if _strict_eq(a, b):
        assert canonical_blob(a) == canonical_blob(b)
    else:
        assert canonical_blob(a) != canonical_blob(b)


@pytest.mark.parametrize("a,b", [
    ({"0": False}, {"0": 0}), ([1], [1.0]), (0.0, -0.0)])
def test_strict_eq_separates_what_python_conflates(a, b):
    assert a == b and not _strict_eq(a, b)
    assert canonical_blob(a) != canonical_blob(b)


def test_canonical_blob_bool_int_not_conflated():
    # Python's True == 1, but a spec flag and a count are different
    # experiments.
    assert canonical_blob(True) != canonical_blob(1)
    assert canonical_blob(False) != canonical_blob(0)


def test_canonical_blob_rejects_unknown_types():
    with pytest.raises(UncacheableArgument):
        canonical_blob(object())


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["preset", "ncores", "strategy", "seed",
                     "write_phases", "nvariables", "trace_label"]),
    _json_scalars, min_size=1, max_size=7))
def test_task_key_reordering_insensitive_and_sensitive_to_content(spec):
    def fn(s):
        return s

    reordered = dict(reversed(list(spec.items())))
    assert task_key(fn, (spec,), {}, "fp") \
        == task_key(fn, (reordered,), {}, "fp")
    changed = dict(spec, _extra_field="x")
    assert task_key(fn, (changed,), {}, "fp") \
        != task_key(fn, (spec,), {}, "fp")
    # fingerprint and kwargs fold in too
    assert task_key(fn, (spec,), {}, "other-fp") \
        != task_key(fn, (spec,), {}, "fp")
    assert task_key(fn, (), {"spec": spec}, "fp") \
        != task_key(fn, (spec,), {}, "fp")
