"""Span recording by wrapping public names of the ssdb package from outside.

Nothing inside ``src/`` is instrumented. A wrapper replaces the name a
caller looks up (``ssdb.client.split``, ``Hub.handle``, ...) and records
one span per call: id, name, start, end, parent span id, the message's
``req_id`` (inherited from the enclosing span when the call carries none),
whether the call raised, and a size (bytes of a frame, cells of a
reconstruction). Spans stay in memory until the process writes them out.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

# Record layout; lists rather than dicts keep the per-call cost low.
ID, NAME, START, END, PARENT, REQ_ID, FAILED, SIZE = range(8)


def _msg_type(args) -> str:
    return getattr(args[1], "type", "?")


def _rid_of(arg):
    return getattr(arg, "req_id", None) or None


class Tracer:
    """Collects spans for one process while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.missing: list[str] = []  # span names whose target does not exist
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, suffix=None, rid=None, post=None) -> bool:
        """Replace ``owner.attr`` with a timing wrapper.

        Args:
            owner: module or class holding the callable.
            attr: attribute name the callers look up.
            name: span name.
            suffix: function of the call's args giving a last name part,
                e.g. the message type a handler was given.
            rid: function of the args giving the req_id before the call.
            post: function of (args, result) giving (req_id or None, size),
                or None to drop the span (e.g. an incomplete frame).

        Returns False, and records the name as missing, when the target
        does not exist; the run goes on without that span.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return False
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            req_id = rid(args) if rid is not None else None
            if req_id is None and parent is not None:
                req_id = parent[1]
            span_id = next(tracer._ids)
            parent_id = parent[0] if parent is not None else None
            span_name = name if suffix is None else f"{name}.{suffix(args)}"
            stack.append((span_id, req_id))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf()
                stack.pop()
                tracer.spans.append([span_id, span_name, start, end, parent_id, req_id, True, None])
                raise
            end = perf()
            stack.pop()
            size = None
            if post is not None:
                extra = post(args, result)
                if extra is None:
                    return result
                req_id = extra[0] or req_id
                size = extra[1]
            tracer.spans.append([span_id, span_name, start, end, parent_id, req_id, False, size])
            return result

        wrapper.__wrapped__ = fn
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return True

    def uninstall(self) -> None:
        """Put every wrapped name back as it was."""
        self.enabled = False
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def _length(args, result):
    """Size of an encoded frame in bytes, or of a reconstruction in cells."""
    return None, len(result)


def _frame_in(args, result):
    if result is None:
        return None  # buffer did not hold a whole frame yet
    return _rid_of(result[0]), result[1]


def install_protocol(tracer: Tracer) -> None:
    """Wrap the frame codec and the two connection openers."""
    from ssdb import protocol

    tracer.wrap(protocol, "request", "protocol.request", rid=lambda a: _rid_of(a[1]))
    tracer.wrap(protocol, "push", "protocol.push", rid=lambda a: _rid_of(a[1]))
    tracer.wrap(
        protocol, "encode_frame", "protocol.encode_frame",
        rid=lambda a: _rid_of(a[0]), post=_length,
    )
    tracer.wrap(protocol, "decode_frame", "protocol.decode_frame", post=_frame_in)


def install_client(tracer: Tracer) -> None:
    """Wrap the dealer and query engine as the benchmark's client calls them."""
    import ssdb.client as client
    import ssdb.field as field

    install_protocol(tracer)
    tracer.wrap(field, "is_prime", "field.is_prime")
    tracer.wrap(client, "split", "shamir.split")
    tracer.wrap(client, "encode_value", "encoding.encode_value")
    tracer.wrap(client, "decode_value", "encoding.decode_value")
    tracer.wrap(client, "parse_query", "client.parse_query")
    tracer.wrap(client, "evaluate_predicate", "client.evaluate_predicate")
    tracer.wrap(client, "_reconstruct_matrix", "client.reconstruct", post=_length)
    tracer.wrap(client, "execute_query", "client.execute_query")
    tracer.wrap(client.Dealer, "insert_row", "client.insert_row")
    for method in ("insert_bundle", "get_schema", "get_column", "fetch_to_client"):
        tracer.wrap(client.HubClient, method, f"client.hub.{method}")
    tracer.wrap(client.ResultListener, "wait", "client.listener.wait")


def install_daemon(tracer: Tracer) -> None:
    """Wrap hub and share-server entry points; must run before they start."""
    import ssdb.hub as hub
    import ssdb.server as server

    install_protocol(tracer)
    for owner, name in ((hub.Hub, "hub.handle"), (server.ShareServer, "server.handle")):
        tracer.wrap(owner, "handle", name, suffix=_msg_type, rid=lambda a: _rid_of(a[1]))
    for method in ("append_row", "column", "rows_for"):
        tracer.wrap(server.ServerStore, method, f"server.{method}")
    tracer.wrap(os, "fsync", "os.fsync")
