"""String-keyed registry of execution engines.

The registry decouples consumers (CLI flags, sweep configuration files,
cached run records) from adapter classes: an engine is requested by name,

>>> from repro.engine import create_engine
>>> engine = create_engine("analytical")
>>> sorted(create_engine("cycle").fingerprint())  # doctest: +SKIP

and new engines — further baselines, alternative simulators — are added with
one :func:`register_engine` call (typically at adapter-module import time).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.engine.base import Engine
from repro.errors import ConfigurationError

EngineFactory = Callable[..., Engine]

_FACTORIES: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory | None = None):
    """Register ``factory`` under ``name``; usable as a decorator.

    >>> @register_engine("my-engine")           # doctest: +SKIP
    ... class MyEngine(Engine): ...
    """
    if not name:
        raise ConfigurationError("engine name must be non-empty")

    def _register(target: EngineFactory) -> EngineFactory:
        if name in _FACTORIES:
            raise ConfigurationError(f"engine {name!r} is already registered")
        _FACTORIES[name] = target
        return target

    if factory is not None:
        return _register(factory)
    return _register


def unregister_engine(name: str) -> None:
    """Remove an engine from the registry (primarily for tests)."""
    _FACTORIES.pop(name, None)


def engine_registered(name: str) -> bool:
    """True when ``name`` resolves to a registered factory."""
    return name in _FACTORIES


def available_engines() -> Tuple[str, ...]:
    """Sorted names of every registered engine."""
    return tuple(sorted(_FACTORIES))


def create_engine(name: str, **kwargs) -> Engine:
    """Instantiate the engine registered under ``name``.

    Keyword arguments are forwarded to the factory, so engine-specific knobs
    (``mode``, ``algorithm``, ``seed``, ...) stay reachable through the string
    interface.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; available: {', '.join(available_engines())}"
        ) from None
    engine = factory(**kwargs)
    if not isinstance(engine, Engine):
        raise ConfigurationError(
            f"factory for engine {name!r} returned {type(engine).__name__}, "
            "expected an Engine"
        )
    return engine
