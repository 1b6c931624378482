"""Every ``REPRO_*`` run knob, in one table.

Each :class:`Knob` gives its variable, figure-CLI flag, parser,
default, whether it changes a sweep task's result (and so is folded
into every cache key) and whether the remote backend forwards it to
its workers. Generated from :data:`KNOBS`: :func:`get`, the one place a
``REPRO_*`` variable is read (at call time, so a later ``os.environ``
change takes effect); the cache-key fold :func:`result_context`; the
worker env passthrough :data:`FORWARDED_ENV`; and the figure CLI's
flags and ``--help`` lines (:func:`apply_cli`, :func:`cli_help`).

The engine has no knobs: it always runs the component solver and the
calendar queue, and the compiled kernel whenever it builds. This module
imports nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, MutableMapping,
                    Optional, Sequence, Tuple, Type)

__all__ = ["BACKENDS", "FORWARDED_ENV", "KNOBS", "Knob", "KnobError",
           "apply_cli", "apply_forwarded", "cli_help", "forwarded_env",
           "get", "parse_bool", "result_context"]

#: Sweep-execution backends (:mod:`repro.experiments.backends`).
BACKENDS = ("serial", "process", "remote")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class KnobError(ValueError):
    """A knob value is malformed; the message names the variable or flag."""


# --------------------------------------------------------------------- #
# parsers: raw text -> value, ValueError (with the reason) when malformed
# --------------------------------------------------------------------- #
def parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUE or value in _FALSE or not value:
        return value in _TRUE
    raise ValueError(f"is not a boolean; use one of "
                     f"{'/'.join(_TRUE)} or {'/'.join(_FALSE)}")


def _count(minimum: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            value = int(raw.strip())
        except ValueError:
            raise ValueError("is not an integer") from None
        if value < minimum:
            raise ValueError(f"must be an integer >= {minimum}")
        return value
    return parse


def _backend(raw: str) -> str:
    value = raw.strip().lower()
    if value not in BACKENDS:
        raise ValueError(f"is not a backend; pick one of "
                         f"{', '.join(BACKENDS)}")
    return value


def _text(raw: str) -> str:
    return raw.strip()


def _existing_file(raw: str) -> str:
    path = raw.strip()
    if not os.path.isfile(path):
        raise ValueError("names no such file")
    return path


def _host_port(raw: str) -> Tuple[str, int]:
    host, sep, port = raw.strip().rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError("is not host:port")
    return host, int(port)


@dataclass(frozen=True)
class Knob:
    """One run knob: how it is set, validated, keyed and forwarded."""

    name: str
    env: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    #: Figure-CLI flag; a boolean knob's flag also gets a ``--no-`` form.
    flag: Optional[str] = None
    metavar: str = ""
    #: Read inside a sweep task and changes its result: folded into
    #: every sweep-cache key (:func:`result_context`).
    changes_results: bool = False
    #: Sent from the remote coordinator to its workers in the handshake.
    forwarded: bool = False
    #: A malformed value warns and falls back to the default instead of
    #: raising (a typo in a speed knob costs speed, never results).
    lenient: bool = False


KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("fast", "REPRO_FAST", parse_bool, False,
         "trimmed sweeps: smaller scales, one write phase",
         changes_results=True, forwarded=True),
    Knob("parallel", "REPRO_PARALLEL", _count(1), 1,
         "worker processes for the process backend",
         flag="--parallel", metavar="N", lenient=True),
    Knob("backend", "REPRO_BACKEND", _backend, "process",
         f"sweep backend: {'|'.join(BACKENDS)}",
         flag="--backend", metavar="NAME"),
    Knob("workers", "REPRO_WORKERS", _text, "",
         "remote sweep workers, host:port[,host:port...]",
         flag="--workers", metavar="ADDRS"),
    Knob("trace", "REPRO_TRACE", _text, "",
         "write one trace per sweep configuration into DIR "
         "(bypasses the cache)",
         flag="--trace", metavar="DIR", forwarded=True),
    Knob("cache", "REPRO_CACHE", parse_bool, False,
         "serve sweep points from the result cache",
         flag="--cache"),
    Knob("cache-dir", "REPRO_CACHE_DIR", _text, "",
         "result cache root (default $XDG_CACHE_HOME/repro/sweeps)",
         flag="--cache-dir", metavar="DIR"),
    Knob("cache-max-bytes", "REPRO_CACHE_MAX_BYTES", _count(0), 2 << 30,
         "result cache size bound in bytes (LRU eviction)"),
    Knob("faults", "REPRO_FAULTS", _existing_file, "",
         "fault-schedule JSON for the faults figure",
         flag="--faults", metavar="PATH"),
    Knob("kernel-cache", "REPRO_KERNEL_CACHE", _text, "",
         "compiled-kernel build cache (default ~/.cache/repro/kernels)"),
    Knob("service-addr", "REPRO_SERVICE_ADDR", _host_port,
         ("127.0.0.1", 8642), "servectl's default host:port"),
)}

#: Variables the remote coordinator forwards to its sweep workers.
FORWARDED_ENV = tuple(knob.env for knob in KNOBS.values() if knob.forwarded)


def get(name: str, error: Type[Exception] = KnobError) -> Any:
    """The knob's current value: the environment variable, else the
    default. A malformed value raises ``error`` naming the variable
    (a lenient knob warns and returns the default instead)."""
    knob = KNOBS[name]
    raw = os.environ.get(knob.env, "")
    if not raw.strip():
        return knob.default
    try:
        return knob.parse(raw)
    except ValueError as exc:
        message = f"{knob.env}={raw!r} {exc}"
    if knob.lenient:
        warnings.warn(f"{message}; using the default {knob.default!r}",
                      RuntimeWarning, stacklevel=2)
        return knob.default
    raise error(message)


def result_context() -> Dict[str, Any]:
    """The values of every result-changing knob, keyed ``repro_<name>``."""
    return {"repro_" + knob.name.replace("-", "_"): get(knob.name)
            for knob in KNOBS.values() if knob.changes_results}


def forwarded_env() -> Dict[str, str]:
    """Every forwarded variable's raw value, ``""`` meaning unset."""
    return {env: os.environ.get(env, "") for env in FORWARDED_ENV}


def apply_forwarded(env: Mapping[str, Any]) -> None:
    """Adopt a coordinator's :func:`forwarded_env`: every forwarded
    variable is set or, when empty or absent, unset, so nothing lingers
    from a previous coordinator."""
    for key in FORWARDED_ENV:
        value = str(env.get(key, "") or "")
        if value:
            os.environ[key] = value
        else:
            os.environ.pop(key, None)


# --------------------------------------------------------------------- #
# figure CLI
# --------------------------------------------------------------------- #
def _cli_flags() -> Dict[str, Tuple[Knob, Optional[str]]]:
    """``flag -> (knob, value)``; a boolean knob's flag and its ``--no-``
    form set ``1``/``0``, any other flag takes its value (``None``)."""
    flags: Dict[str, Tuple[Knob, Optional[str]]] = {}
    for knob in KNOBS.values():
        if knob.flag and knob.parse is parse_bool:
            flags[knob.flag] = (knob, "1")
            flags["--no-" + knob.flag[2:]] = (knob, "0")
        elif knob.flag:
            flags[knob.flag] = (knob, None)
    return flags


def apply_cli(argv: Sequence[str],
              environ: Optional[MutableMapping[str, str]] = None,
              ) -> List[str]:
    """Write each validated knob flag of ``argv`` into ``environ``
    (default ``os.environ``) and return the other arguments in order.
    Raises :class:`KnobError` on an unknown flag or a missing or
    malformed value; ``-h``/``--help`` pass through."""
    environ = os.environ if environ is None else environ
    flags = _cli_flags()
    rest: List[str] = []
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-") or arg in ("-h", "--help"):
            rest.append(arg)
            continue
        if arg not in flags:
            raise KnobError(f"unknown option {arg}; valid options: "
                            f"{', '.join(flags)}")
        knob, value = flags[arg]
        if value is None:
            value = next(args, None)
            if value is None or value.startswith("-"):
                raise KnobError(f"{arg} requires {knob.metavar}")
            try:
                knob.parse(value)
            except ValueError as exc:
                raise KnobError(f"{arg} {value!r} {exc}") from None
        environ[knob.env] = value
    return rest


def cli_help() -> str:
    """One line per knob: its flag (if any), variable and meaning."""
    flags: Dict[str, List[str]] = {knob.env: [] for knob in KNOBS.values()}
    for flag, (knob, value) in _cli_flags().items():
        flags[knob.env].append(flag if value else f"{flag} {knob.metavar}")
    usage = {env: "/".join(names) for env, names in flags.items()}
    width = max(map(len, usage.values()))
    return "\n".join(f"  {usage[knob.env]:<{width}}  {knob.env:<22} "
                     f"{knob.help}" for knob in KNOBS.values())
