"""In-memory spans around calls into each layer's public entry points.

Nothing here edits the program: :class:`Tracer.install` swaps the
looked-up attributes (class methods and the module-level names the
callers resolve) for timing wrappers, and :meth:`Tracer.uninstall`
puts the originals back.  Each span records its name, wall start and
end, the thread CPU time it used, its parent span and the request it
belongs to.  Spans stay in memory until the run ends.

Parent links follow a context variable, so they are right inside one
thread and inside one asyncio task.  Work handed to another thread (the
serving runtime's job threads) starts with an empty stack; the wrapper
then finds the request from its arguments: the request tag is the
request id, job ids are ``<tag>-NNNN``, and problem payloads are
registered when their request is submitted.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    cpu_start: float
    thread: int
    parent: Optional[int]
    request: Optional[str]
    end: float = 0.0
    cpu_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "wall_s": self.duration,
            "cpu_s": self.cpu_s,
            "thread": self.thread,
            "parent": self.parent,
            "request": self.request,
        }


HintFn = Callable[[Tuple[Any, ...], Dict[str, Any]], Optional[str]]
ResultFn = Callable[[Span, Any], None]


def _rid_from_job_id(job_id: str) -> Optional[str]:
    head, sep, _ = job_id.rpartition("-")
    return head if sep else None


class Tracer:
    """Collects spans; one per benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._stack: contextvars.ContextVar[Tuple[Span, ...]] = (
            contextvars.ContextVar("perfbench_stack", default=())
        )
        self._roots: Dict[str, Span] = {}
        self._problems: Dict[int, Tuple[object, str]] = {}
        self._patches: List[Tuple[object, str, Any]] = []

    # -- span lifecycle ------------------------------------------------
    def _open(self, name: str, rid: Optional[str]) -> Tuple[Span, Any]:
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            rid = parent.request
        elif rid is not None:
            parent = self._roots.get(rid)
        with self._lock:
            index = self._counter
            self._counter += 1
        span = Span(
            name=name,
            start=time.perf_counter(),
            cpu_start=time.thread_time(),
            thread=threading.get_ident(),
            parent=parent.index if parent is not None else None,
            request=rid,
            index=index,
        )
        return span, self._stack.set(stack + (span,))

    def _close(self, span: Span, token: Any) -> None:
        span.end = time.perf_counter()
        span.cpu_s = time.thread_time() - span.cpu_start
        self._stack.reset(token)
        with self._lock:
            self.spans.append(span)

    def _adopt(self, span: Span, rid: Optional[str]) -> None:
        """Attach a span whose request was only known from its result."""
        if span.request is None and rid is not None:
            span.request = rid
            root = self._roots.get(rid)
            span.parent = root.index if root is not None else None

    def request(self, rid: str) -> "_RequestScope":
        """Root span of one benchmark request (a context manager)."""
        return _RequestScope(self, rid)

    def register_problem(self, problem: object, rid: str) -> None:
        # The problem object is kept alive so its id cannot be reused.
        self._problems[id(problem)] = (problem, rid)

    def rid_of_problem(self, problem: object) -> Optional[str]:
        entry = self._problems.get(id(problem))
        return entry[1] if entry is not None else None

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        hint: Optional[HintFn] = None,
        on_result: Optional[ResultFn] = None,
    ) -> Callable[..., Any]:
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                rid = hint(args, kwargs) if hint is not None else None
                span, token = tracer._open(name, rid)
                try:
                    result = await fn(*args, **kwargs)
                    if on_result is not None:
                        on_result(span, result)
                    return result
                finally:
                    tracer._close(span, token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rid = hint(args, kwargs) if hint is not None else None
            span, token = tracer._open(name, rid)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                tracer._close(span, token)

        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        hint: Optional[HintFn] = None,
        on_result: Optional[ResultFn] = None,
    ) -> None:
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(target, name, hint, on_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        import repro.annealer.batched as batched
        import repro.annealer.hierarchical as hierarchical
        import repro.gateway.client as gw_client
        import repro.gateway.server as gw_server
        import repro.ising.simcim as simcim
        import repro.maxcut.bifurcation as bifurcation
        import repro.problems.solvers as solvers
        from repro.backends import list_backends, resolve_backend
        from repro.gateway.router import ShardRouter
        from repro.runtime.executor import EnsembleExecutor
        from repro.runtime.service import AnnealingService

        def keep_result(span: Span, result: Any) -> None:
            span.attrs["result"] = result

        # -- TSP annealer core ----------------------------------------
        # hierarchical.py binds these names at import time, so the
        # module globals it resolves are the ones to swap.
        self.patch(hierarchical, "build_hierarchy", "clustering.build",
                   on_result=keep_result)
        self.patch(hierarchical, "solve_level", "annealer.level")
        self.patch(hierarchical.ClusteredCIMAnnealer, "solve",
                   "annealer.solve", on_result=keep_result)
        self.patch(batched, "solve_batch", "annealer.solve_batch",
                   on_result=keep_result)

        # -- spin kernels (imported lazily by the backends) -----------
        # QUBO kernels count their MACs; the Ising/Max-Cut ones do not.
        for fn in ("anneal_qubo_chromatic", "anneal_qubo_sequential",
                   "relax_qubo_simcim"):
            self.patch(solvers, fn, "problems.qubo_kernel")
        self.patch(simcim, "simcim_optimize", "problems.spin_kernel")
        self.patch(bifurcation, "simulated_bifurcation_maxcut",
                   "problems.spin_kernel")

        # -- backends -------------------------------------------------
        def problem_hint(args: Tuple[Any, ...], _kw: Dict[str, Any]) -> Optional[str]:
            return self.rid_of_problem(args[1]) if len(args) > 1 else None

        for backend in list_backends():
            cls = type(resolve_backend(backend))
            self.patch(cls, "solve", f"backends.{backend}.solve")
            self.patch(cls, "reference", "backends.reference",
                       hint=problem_hint)

        # -- runtime --------------------------------------------------
        def executor_hint(_args: Tuple[Any, ...], kw: Dict[str, Any]) -> Optional[str]:
            suffix = str(kw.get("worker_suffix", ""))
            return _rid_from_job_id(suffix[1:]) if suffix.startswith("@") else None

        def request_hint(args: Tuple[Any, ...], _kw: Dict[str, Any]) -> Optional[str]:
            request = args[1] if len(args) > 1 else None
            tag = getattr(request, "tag", "")
            if tag:
                self.register_problem(request.instance, tag)
            return tag or None

        self.patch(EnsembleExecutor, "run", "runtime.executor.run",
                   hint=executor_hint)
        self.patch(AnnealingService, "submit", "runtime.service.submit",
                   hint=request_hint)

        # -- gateway --------------------------------------------------
        self.patch(ShardRouter, "submit", "gateway.router.submit",
                   hint=request_hint)
        self.patch(ShardRouter, "metrics", "gateway.router.metrics")

        def decoded(span: Span, request: Any) -> None:
            self._adopt(span, getattr(request, "tag", "") or None)

        def encoded(span: Span, doc: Any) -> None:
            span.attrs["doc"] = doc

        # The codec functions are bound into the client and server
        # modules at import time; those are the names that get called.
        self.patch(gw_client, "encode_solve_request",
                   "gateway.protocol.encode", on_result=encoded)
        self.patch(gw_client, "parse_telemetry_frame",
                   "gateway.protocol.frame_parse")
        self.patch(gw_server, "decode_solve_request",
                   "gateway.protocol.decode", on_result=decoded)


class _RequestScope:
    def __init__(self, tracer: Tracer, rid: str) -> None:
        self.tracer = tracer
        self.rid = rid

    def __enter__(self) -> Span:
        span, token = self.tracer._open("request", self.rid)
        span.parent = None
        self.tracer._roots[self.rid] = span
        self._span, self._token = span, token
        return span

    def __exit__(self, *exc: object) -> None:
        self.tracer._close(self._span, self._token)
