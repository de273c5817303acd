"""Traced server launcher: ``repro serve`` with a span around every layer.

Usage (from the repository root)::

    python3 e2ebench/launcher.py --spans out.jsonl -- --seed 7 serve --port 0 ...
    python3 e2ebench/launcher.py -- --seed 7 serve ...   # untraced

Everything after ``--`` is handed to ``repro.cli.main`` unchanged.  With
``--spans`` the launcher first replaces the public entry point of each
layer with a traced wrapper (see :data:`LAYERS`), then serves, then writes
the recorded spans to the file once the server has shut down (SIGTERM
stops ``repro serve`` cleanly).  On a ``--shards N`` deployment the
worker processes are traced too: the launcher puts ``hook/`` first on
their PYTHONPATH, its ``sitecustomize`` calls :func:`trace_worker` at
interpreter start, and each worker writes ``<spans>.<pid>`` at exit.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.service.middleware import REQUEST_ID_HEADER  # noqa: E402
from spans import Recorder  # noqa: E402

#: names the span file of a traced launcher's cluster workers
WORKER_SPANS_ENV = "E2EBENCH_WORKER_SPANS"


def _os_size(result: object) -> int:
    tree = result[0] if isinstance(result, tuple) else result
    return int(tree.size)


#: (module, attribute path, span name, work count from the return value)
LAYERS = (
    ("repro.service.middleware.pipeline", "MiddlewarePipeline.handle", "middleware", None),
    ("repro.service.dispatch", "ServiceDispatcher.dispatch_safe", "dispatch", None),
    ("repro.service.dispatch", "decode_query_request", "protocol.decode", None),
    ("repro.service.dispatch", "decode_batch_request", "protocol.decode", None),
    ("repro.service.dispatch", "decode_mutate_request", "protocol.decode", None),
    ("repro.service.dispatch", "decode_watch_poll_request", "protocol.decode", None),
    ("repro.service.dispatch", "encode_response", "protocol.encode", None),
    ("repro.service.dispatch", "result_entry", "render", None),
    ("repro.search.keyword", "KeywordSearcher.search", "search", len),
    ("repro.core.cache", "SummaryCache.run", "cache.run", None),
    ("repro.core.engine", "SizeLEngine.prelim_os", "generate", _os_size),
    ("repro.core.engine", "SizeLEngine.complete_os_flat", "generate", _os_size),
    ("repro.cluster.router", "ClusterRouter.dispatch_safe", "router", None),
    ("repro.cluster.transport", "WorkerClient.request", "transport.call", None),
    ("repro.live.state", "LiveState.apply", "live.apply", None),
    ("repro.core.builder", "build_named_dataset", "setup.dataset", None),
    ("repro.core.builder", "EngineBuilder._resolve_store", "setup.ranking", None),
    ("repro.core.builder", "EngineBuilder.build_session", "setup.session", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every layer of :data:`LAYERS` plus the three special cases:
    the HTTP handler (root span, carries the client's request id), the
    registered selection algorithms, and the watch registry (counts the
    watches each commit re-evaluates)."""
    import importlib

    from repro.cluster.router import ClusterRouter
    from repro.core.registry import ALGORITHM_REGISTRY
    from repro.live.watch import WatchRegistry
    from repro.service.http import _Handler

    for module_name, path, name, count in LAYERS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), count=count))

    for method in ("do_POST", "do_GET"):
        setattr(
            _Handler,
            method,
            recorder.wrap(
                "http.handler",
                getattr(_Handler, method),
                request_id=lambda handler: handler.headers.get(REQUEST_ID_HEADER),
            ),
        )

    for algo in ALGORITHM_REGISTRY.names():
        fn = ALGORITHM_REGISTRY.get(algo)
        wrapped = recorder.wrap("select", fn)
        wrapped.supports_flat = getattr(fn, "supports_flat", False)
        ALGORITHM_REGISTRY.register(algo, wrapped, replace=True)

    scatter = ClusterRouter._scatter

    def carried_scatter(self, calls):
        return scatter(self, [recorder.carry(call) for call in calls])

    ClusterRouter._scatter = carried_scatter

    on_commit = WatchRegistry.on_commit

    def counted_on_commit(self, version, touched_tokens, evaluate):
        evaluated = 0

        def counting(*args):
            nonlocal evaluated
            evaluated += 1
            return evaluate(*args)

        queued = on_commit(self, version, touched_tokens, counting)
        return queued, evaluated

    traced_on_commit = recorder.wrap(
        "watch.on_commit", counted_on_commit, count=lambda result: result[1]
    )
    # callers still get the registry's own return value (notifications queued)
    WatchRegistry.on_commit = lambda self, *args: traced_on_commit(self, *args)[0]


def trace_worker(spans_path: str) -> None:
    """Trace this cluster worker; spans go to ``<spans_path>.<pid>`` at exit.

    A worker's top-level spans take the request id the router forwarded
    with the frame (the worker installs it as the request context).
    """
    from repro.service.middleware.context import current_context

    def forwarded_id() -> "str | None":
        ctx = current_context()
        return ctx.request_id if ctx is not None else None

    recorder = Recorder(root_request_id=forwarded_id)
    install(recorder)
    atexit.register(recorder.dump, f"{spans_path}.{os.getpid()}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="write spans here at exit")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args and repro_args[0] == "--":
        repro_args = repro_args[1:]
    recorder = Recorder()
    if args.spans:
        install(recorder)
        # inherited by the cluster workers this process may spawn
        os.environ[WORKER_SPANS_ENV] = args.spans
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(HERE / "hook"), os.environ.get("PYTHONPATH")])
        )
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        if args.spans:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
