"""Registered worker tasks of the parallel runtime.

A task is a module-level function ``fn(payload, context) -> result`` entered
in :data:`TASKS`; :class:`~repro.runtime.pool.ParallelRuntime` workers look
tasks up by name, so only small payloads and names ever cross the process
boundary.  ``context`` is a per-worker dict that persists across tasks — the
"build once per worker, reuse across calls" stash for engines, networks and
simulators.

Heavy imports happen lazily inside the task bodies: the registry must be
importable by the pool module without dragging the whole engine/mapping
stack into every process that merely touches the runtime.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict

#: task name -> callable(payload, context); workers resolve tasks here
TASKS: Dict[str, Callable[[Any, Dict[str, Any]], Any]] = {}


def task(name: str) -> Callable:
    """Register a task function under ``name`` (import-time side effect)."""
    def register(fn: Callable[[Any, Dict[str, Any]], Any]) -> Callable:
        TASKS[name] = fn
        return fn
    return register


# --------------------------------------------------------------------- #
# diagnostics
# --------------------------------------------------------------------- #
@task("runtime.selftest")
def _selftest(payload: Dict[str, Any], context: Dict[str, Any]) -> Any:
    """Health-check / failure-injection task (tests and pool smoke checks).

    ``action`` selects the behaviour: ``echo`` returns ``value`` along with
    the worker id, ``raise`` throws (error-propagation path), ``exit`` kills
    the worker process outright (dead-worker detection path), ``sleep``
    stalls for ``value`` seconds (deadline/straggler path), ``count``
    increments a per-worker counter (persistent-context proof).
    """
    action = payload.get("action", "echo")
    if action == "raise":
        raise RuntimeError(payload.get("value", "selftest failure"))
    if action == "exit":
        os._exit(int(payload.get("value", 1)))
    if action == "sleep":
        import time

        time.sleep(float(payload.get("value", 0.0)))
        return {"worker_id": context["worker_id"], "slept": True}
    if action == "count":
        context["selftest_count"] = context.get("selftest_count", 0) + 1
        return {"worker_id": context["worker_id"],
                "count": context["selftest_count"]}
    return {"worker_id": context["worker_id"], "value": payload.get("value")}


# --------------------------------------------------------------------- #
# sweep evaluation (SweepExecutor)
# --------------------------------------------------------------------- #
@task("sweep.set_network")
def _set_network(payload: Dict[str, Any], context: Dict[str, Any]) -> str:
    """Install a network in the worker's cache (broadcast once per sweep)."""
    networks = context.setdefault("networks", {})
    networks[payload["fingerprint"]] = payload["network"]
    return payload["fingerprint"]


@task("sweep.point")
def _sweep_point(payload: Dict[str, Any], context: Dict[str, Any]) -> Any:
    """Evaluate one (config, batch) design point through a cached engine."""
    from repro.engine.cache import canonical_json
    from repro.engine.registry import create_engine

    engines = context.setdefault("engines", {})
    key = canonical_json({"name": payload["engine"],
                          "kwargs": payload.get("engine_kwargs") or {}})
    engine = engines.get(key)
    if engine is None:
        engine = create_engine(payload["engine"],
                               **(payload.get("engine_kwargs") or {}))
        engines[key] = engine
    network = context.get("networks", {}).get(payload["network_fingerprint"])
    if network is None:
        raise RuntimeError(
            f"worker has no network {payload['network_fingerprint']!r}; "
            "broadcast sweep.set_network first"
        )
    return engine.evaluate(network, payload["config"], payload["batch"])


# --------------------------------------------------------------------- #
# mapping search (ScheduleOptimizer)
# --------------------------------------------------------------------- #
@task("map.search_layer")
def _map_search_layer(payload: Dict[str, Any], context: Dict[str, Any]) -> Any:
    """Search one layer's mapspace; identical to the serial per-layer body."""
    from repro.mapping.optimizer import search_layer_entry

    return search_layer_entry(
        layer=payload["layer"],
        config=payload["config"],
        objective=payload["objective"],
        batch=payload["batch"],
        energy=payload["energy"],
        shortlist=payload["shortlist"],
        algorithm=payload.get("algorithm", "direct"),
    )


# --------------------------------------------------------------------- #
# functional verification (FunctionalNetworkRunner)
# --------------------------------------------------------------------- #
@task("verify.sim_block")
def _verify_sim_block(payload: Dict[str, Any], context: Dict[str, Any]) -> int:
    """Simulate one ofmap channel block into the shared output tensor.

    The padded ifmaps, weights and the assembly buffer arrive as
    :class:`~repro.runtime.shm.SharedTensor` handles, so a VGG-scale tensor
    crosses the process boundary as a few dozen bytes.  Block values are
    bit-identical to the serial whole-layer computation because every ofmap
    channel is an independent broadcast-multiply/merged-axis reduction.
    ``algorithm`` routes the block to the direct sliding-window kernel
    (default) or the Winograd F(2x2,3x3) tile kernel — whose per-channel
    independence gives the same partition bit-identity.
    """
    from repro.sim.functional_vectorized import vectorized_ofmap_block
    from repro.sim.winograd import winograd_ofmap_block

    layer = payload["layer"]
    padded_handle = payload["padded"]
    weights_handle = payload["weights"]
    out_handle = payload["out"]
    m_start, m_stop = payload["m_start"], payload["m_stop"]
    algorithm = payload.get("algorithm", "direct")
    try:
        padded = padded_handle.open()
        weights = weights_handle.open()
        out = out_handle.open()
        if algorithm == "winograd":
            winograd_ofmap_block(layer, padded, weights, m_start, m_stop,
                                 out=out)
        else:
            vectorized_ofmap_block(layer, padded, weights, m_start, m_stop,
                                   out=out)
    finally:
        padded_handle.close()
        weights_handle.close()
        out_handle.close()
    return m_stop - m_start
