"""Evaluation-as-a-service layer: ``repro serve`` / ``repro request``.

The batch evaluator scores millions of design points per second, but the
CLI feeds it one invocation at a time.  This package turns the same stack
into a long-running service:

* :mod:`repro.serve.server` — stdlib-``asyncio`` HTTP/1.1 JSON server
  accepting concurrent ``run``/``sweep``/``map``/``verify`` requests;
* :mod:`repro.serve.coalesce` — dispatches a sweep at once when no
  batch of its key is in flight, and merges the compatible sweeps that
  arrive during one into a single columnar ``evaluate_batch`` call,
  scattering per-request slices back (float-bit-identical to evaluating
  each request alone);
* :mod:`repro.serve.payloads` — response builders shared with the CLI,
  so a coalesced response is byte-identical to ``repro <cmd> --json``;
* :mod:`repro.serve.protocol` — request schemas with CLI-matching
  defaults, plus the minimal HTTP framing;
* :mod:`repro.serve.client` — blocking and asyncio clients
  (``repro request`` uses the blocking one).

Attributes resolve lazily so importing the package (e.g. for the CLI's
payload builders) does not drag in the server module.
"""

from importlib import import_module

__all__ = [
    "Coalescer",
    "DEFAULT_PORT",
    "EvalServer",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "merge_grids",
    "request_json",
    "scatter_result",
]

_EXPORTS = {
    "Coalescer": "repro.serve.coalesce",
    "merge_grids": "repro.serve.coalesce",
    "scatter_result": "repro.serve.coalesce",
    "DEFAULT_PORT": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "EvalServer": "repro.serve.server",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "request_json": "repro.serve.client",
}


def __getattr__(name: str):
    try:
        module = import_module(_EXPORTS[name])
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
