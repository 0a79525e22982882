"""In-memory spans around the program's public functions, for the traced run.

`Tracer.install()` replaces each layer-boundary function and method of the
`tcmrag` modules with a wrapper that records one span: name, start, end, the
span that was open when it was called (its parent) and the current request
id. Spans live in flat arrays until `write()` dumps them as JSON lines.
`uninstall()` puts every original back.

Helpers called once per token or per candidate (`build_dag`, `viterbi`,
`fnv1a64`, `iou_score`, ...) are not layer boundaries and stay unwrapped, so
that tracing cost stays small next to the work it measures. `VectorIndex.score`,
called once per pooled candidate, is counted without a span.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Protocol

from tcmrag import cli, corpus, dense, engine, evalharness, llm, prompt, retrieve, segment, sparse

LAYERS = (segment, corpus, engine, dense, sparse, retrieve, prompt, llm, evalharness, cli)

UNWRAPPED = {
    "segment.build_dag", "segment.max_prob_route", "segment.viterbi", "segment.build_lexicon",
    "dense.fnv1a64", "dense.token_bucket", "dense.VectorIndex.vector",
    "sparse.iou_score", "sparse.KeywordIndex.tokens",
    "retrieve.fusion_score", "retrieve.parent_case_id",
    "llm.canonical_messages", "llm.messages_digest",
}
COUNTED = {"dense.VectorIndex.score"}


def _layer_functions():
    """(owner, attribute, span name, function) for every wrapped callable."""
    for mod in LAYERS:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, name, f"{short}.{name}", obj
            elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                  and Protocol not in obj.__mro__):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, classmethod) or inspect.isfunction(member):
                        yield obj, attr, f"{short}.{name}.{attr}", member


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.work = array("q")   # characters cut, for segment.cut spans
        self.request = 0
        self.counts: Counter[str] = Counter()
        # span name -> fn(tracer, args, kwargs, result), called after each return
        self.hooks: dict[str, object] = {}
        self.last: dict[str, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, label: str, fn):
        nid = self._name_ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        clock, stack = time.thread_time, self._stack
        is_cut = label == "segment.cut"
        hook = self.hooks.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.work.append(len(args[0]) if is_cut else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        originals: dict[int, object] = {}
        for owner, attr, label, fn in _layer_functions():
            if label in UNWRAPPED:
                continue
            raw = fn.__func__ if isinstance(fn, classmethod) else fn
            make = self._count_wrapper if label in COUNTED else self._span_wrapper
            wrapped = make(label, raw)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, classmethod(wrapped) if isinstance(fn, classmethod) else wrapped)
            originals[id(raw)] = wrapped
        # names bound by `from .x import f` in other modules must see the wrapper too
        for mod in LAYERS:
            for attr, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None and getattr(mod, attr) is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path, lo: int = 0, hi: int | None = None) -> None:
        """Spans lo..hi as JSON lines: id, name, start, end (s), parent id, request id."""
        hi = len(self.start) if hi is None else hi
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(lo, hi):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "request": self.req[i]}, separators=(",", ":")) + "\n")


class SpanView:
    """Durations, self times and children of the spans in [lo, hi)."""

    def __init__(self, tr: Tracer, lo: int, hi: int) -> None:
        self.tr, self.lo, self.hi = tr, lo, hi
        self.dur = {i: tr.end[i] - tr.start[i] for i in range(lo, hi)}
        self.kids: dict[int, list[int]] = {}
        for i in range(lo, hi):
            p = tr.parent[i]
            if p >= lo:
                self.kids.setdefault(p, []).append(i)

    def ids(self, name: str, requests: set[int] | None = None) -> list[int]:
        nid = self.tr._name_ids.get(name)
        return [i for i in range(self.lo, self.hi) if self.tr.name[i] == nid
                and (requests is None or self.tr.req[i] in requests)]

    def total(self, name: str, requests: set[int] | None = None) -> float:
        return sum(self.dur[i] for i in self.ids(name, requests))

    def self_total(self, name: str) -> float:
        """Summed self time: each span's duration minus the time its children cover."""
        return sum(self.minus_children(i) for i in self.ids(name))

    def minus_children(self, i: int, names: set[str] | None = None) -> float:
        """Duration of span i minus its direct children (those with the given names)."""
        tr = self.tr
        return self.dur[i] - sum(self.dur[j] for j in self.kids.get(i, ())
                                 if names is None or tr.names[tr.name[j]] in names)

    def has_parent(self, i: int, name: str) -> bool:
        p = self.tr.parent[i]
        return p >= 0 and self.tr.names[self.tr.name[p]] == name
