"""The knob table: one definition per ``REPRO_*`` variable.

Covered here: the boolean parser every on/off knob shares, errors that
name the variable, the lenient worker count, the cache-key fold
(exactly the result-changing knobs reach it), the remote env
passthrough, the figure CLI's flag handling generated from the table,
and a source scan that keeps every ``REPRO_*`` read inside
:mod:`repro.knobs`.
"""

import os
import pathlib
import re

import pytest

from repro import knobs
from repro.cache import ResultCache, cache_from_env
from repro.experiments.backends.protocol import MODE_ENV_KEYS
from repro.experiments.executor import env_mode_context
from repro.knobs import KNOBS, KnobError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: A valid value different from the default, per knob.
_NON_DEFAULT = {
    "fast": "1", "parallel": "3", "backend": "serial",
    "workers": "127.0.0.1:1", "trace": "traces", "cache": "1",
    "cache-dir": "/tmp/elsewhere", "cache-max-bytes": "1024",
    "faults": __file__, "kernel-cache": "/tmp/kernels",
    "service-addr": "example.org:9",
}


@pytest.fixture
def clean_env(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)
    return monkeypatch


def test_every_knob_has_a_non_default_probe():
    assert set(_NON_DEFAULT) == set(KNOBS)


@pytest.mark.parametrize("raw", ["1", "true", "YES", "On", " yes "])
def test_bool_true_spellings(clean_env, raw):
    clean_env.setenv("REPRO_CACHE", raw)
    assert knobs.get("cache") is True


@pytest.mark.parametrize("raw", ["0", "false", "No", "OFF", ""])
def test_bool_false_spellings(clean_env, raw):
    clean_env.setenv("REPRO_FAST", raw)
    assert knobs.get("fast") is False


@pytest.mark.parametrize("name,env", [("fast", "REPRO_FAST"),
                                      ("cache", "REPRO_CACHE")])
def test_bool_rejects_anything_else(clean_env, name, env):
    clean_env.setenv(env, "maybe")
    with pytest.raises(KnobError, match=f"{env}='maybe'"):
        knobs.get(name)


def test_cache_env_rejects_malformed_switch(clean_env):
    clean_env.setenv("REPRO_CACHE", "enabled")
    with pytest.raises(KnobError, match="REPRO_CACHE"):
        cache_from_env()


def test_cache_max_bytes_validated(clean_env, tmp_path):
    clean_env.setenv("REPRO_CACHE_MAX_BYTES", "lots")
    with pytest.raises(KnobError, match="REPRO_CACHE_MAX_BYTES='lots'"):
        ResultCache(str(tmp_path))
    clean_env.setenv("REPRO_CACHE_MAX_BYTES", "-1")
    with pytest.raises(KnobError, match="REPRO_CACHE_MAX_BYTES"):
        ResultCache(str(tmp_path))
    clean_env.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    assert ResultCache(str(tmp_path)).max_bytes == 4096
    clean_env.delenv("REPRO_CACHE_MAX_BYTES")
    assert ResultCache(str(tmp_path)).max_bytes == 2 << 30


def test_lenient_knob_warns_and_defaults(clean_env):
    clean_env.setenv("REPRO_PARALLEL", "many")
    with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL='many'"):
        assert knobs.get("parallel") == 1


def test_error_type_is_the_callers(clean_env):
    clean_env.setenv("REPRO_BACKEND", "carrier-pigeon")
    with pytest.raises(LookupError, match="REPRO_BACKEND"):
        knobs.get("backend", error=LookupError)


def test_service_addr(clean_env):
    assert knobs.get("service-addr") == ("127.0.0.1", 8642)
    clean_env.setenv("REPRO_SERVICE_ADDR", "node7:9000")
    assert knobs.get("service-addr") == ("node7", 9000)
    clean_env.setenv("REPRO_SERVICE_ADDR", "node7")
    with pytest.raises(KnobError, match="REPRO_SERVICE_ADDR"):
        knobs.get("service-addr")


# --------------------------------------------------------------------- #
# generated surfaces
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(KNOBS))
def test_only_result_changing_knobs_reach_the_cache_key(clean_env, name):
    """A knob changes the cache-key context iff the table says it
    changes results."""
    baseline = env_mode_context()
    clean_env.setenv(KNOBS[name].env, _NON_DEFAULT[name])
    changed = env_mode_context() != baseline
    assert changed == KNOBS[name].changes_results


def test_cache_context_is_fast_only(clean_env):
    assert env_mode_context() == {"repro_fast": False}
    clean_env.setenv("REPRO_FAST", "yes")
    assert env_mode_context() == {"repro_fast": True}


def test_forwarded_keys_come_from_the_table():
    assert MODE_ENV_KEYS == ("REPRO_FAST", "REPRO_TRACE")
    assert MODE_ENV_KEYS == tuple(knob.env for knob in KNOBS.values()
                                  if knob.forwarded)


def test_apply_forwarded_sets_and_unsets(clean_env):
    clean_env.setenv("REPRO_TRACE", "/tmp/stale")
    clean_env.setenv("REPRO_CACHE", "1")
    knobs.apply_forwarded({"REPRO_FAST": "1", "REPRO_TRACE": "",
                           "REPRO_CACHE": "0"})
    assert os.environ["REPRO_FAST"] == "1"
    assert "REPRO_TRACE" not in os.environ
    assert os.environ["REPRO_CACHE"] == "1"  # not forwarded: untouched
    assert knobs.forwarded_env() == {"REPRO_FAST": "1", "REPRO_TRACE": ""}


def test_apply_cli_sets_env_and_keeps_positionals():
    env = {}
    rest = knobs.apply_cli(
        ["--parallel", "2", "fig2", "--cache", "--no-cache",
         "--backend", "serial", "--trace", "t", "table1"], env)
    assert rest == ["fig2", "table1"]
    assert env == {"REPRO_PARALLEL": "2", "REPRO_CACHE": "0",
                   "REPRO_BACKEND": "serial", "REPRO_TRACE": "t"}


@pytest.mark.parametrize("argv,message", [
    (["--solver", "global"], "unknown option --solver"),
    (["--kernel", "python"], "unknown option --kernel"),
    (["--scheduler", "heap"], "unknown option --scheduler"),
    (["--parallel"], "--parallel requires N"),
    (["--parallel", "0"], "--parallel '0' must be an integer >= 1"),
    (["--trace", "--cache"], "--trace requires DIR"),
    (["--backend", "dask"], "--backend 'dask' is not a backend"),
    (["--faults", "/nonexistent/schedule.json"], "names no such file"),
])
def test_apply_cli_rejects(argv, message):
    env = {}
    with pytest.raises(KnobError, match=re.escape(message)):
        knobs.apply_cli(argv, env)
    assert env == {}


def test_help_lists_every_knob():
    text = knobs.cli_help()
    for knob in KNOBS.values():
        assert knob.env in text
        if knob.flag:
            assert knob.flag in text


def test_no_repro_env_read_outside_the_table():
    """Every ``REPRO_*`` read under ``src/`` goes through the table."""
    pattern = re.compile(
        r"""(environ\.get|getenv|environ\[)\(?\s*["']REPRO_""")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "knobs.py" and path.parent == SRC:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert offenders == []
