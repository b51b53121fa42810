"""Spans at hilbhasse's module boundaries, and exact call counts from cProfile.

Spans are recorded from the benchmark's own code: each boundary is a name
bound in a *calling* module's namespace (``hilbhasse.zips.induced_filtration``
is how ``zips`` sees ``linalg``), replaced by a wrapper for the traced pass and
restored afterwards.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import time
from dataclasses import dataclass, field

# (span name, module attribute path seen by the caller).  A name listed more
# than once aggregates every caller.  ``zips.zip_from_json_obj``,
# ``zips.check_equivalence`` and ``schubert.vanishing_order_at_point`` are
# called by no program module: they are how the benchmark itself calls in.
# ``Subspace`` methods are patched on the class, which every caller shares.
BOUNDARIES = [
    ("cli.main", "cli.main"),
    ("field.ctx_build", "cli.FieldCtx"),
    ("field.ctx_build", "zips.FieldCtx"),
    ("zips.enumerate_zips", "cli.enumerate_zips"),
    ("zips.check_equivalence", "cli.check_equivalence"),
    ("zips.from_json", "zips.zip_from_json_obj"),
    ("zips.check_equivalence", "zips.check_equivalence"),
    ("linalg.wedge_of_lines", "zips.wedge_of_lines"),
    ("linalg.induced_filtration", "zips.induced_filtration"),
    ("linalg.from_vectors", "linalg.Subspace.from_vectors"),
    ("linalg.contains", "linalg.Subspace.contains"),
    ("zipgroup.enumerate_G", "cli.enumerate_G"),
    ("zipgroup.enumerate_G", "zipgroup.enumerate_G"),
    ("zipgroup.enumerate_E", "cli.enumerate_E"),
    ("zipgroup.orbits", "cli.orbits"),
    ("zipgroup.bruhat_census", "cli.bruhat_census"),
    ("schubert.stratum_label", "zipgroup.stratum_label"),
    ("schubert.bruhat_word", "zipgroup.bruhat_word"),
    ("schubert.hasse_section", "cli.hasse_section"),
    ("schubert.order_on_stratum", "cli.vanishing_order_on_stratum"),
    ("schubert.order_at_point", "schubert.vanishing_order_at_point"),
    ("weyl.all_weyl_elems", "cli.all_weyl_elems"),
    ("weyl.all_weyl_elems", "zipgroup.all_weyl_elems"),
]

# Span names whose hits and misses are read from the lru_cache they wrap.
MEMOIZED = {"linalg.induced_filtration"}


@dataclass
class Tracer:
    """In-memory span store: one row per span, written out at the end."""

    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # [name_id, parent, request, start, end, error]
    calls: dict = field(default_factory=dict)
    hits: dict = field(default_factory=dict)
    miss_s: dict = field(default_factory=dict)
    request: int = 0
    _ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        row = [name_id, parent, self.request, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[3] = time.perf_counter()
        return row

    def _close(self, row: list, error: bool):
        row[4] = time.perf_counter()
        row[5] = int(error)
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, cache=None):
        nid = self.name_id(name)
        self.calls[name] = self.calls.get(name, 0) + 1
        before = cache.cache_info() if cache is not None else None
        row = self._open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(row, True)
            raise
        self._close(row, False)
        if cache is not None:
            if cache.cache_info().hits > before.hits:
                self.hits[name] = self.hits.get(name, 0) + 1
            else:
                self.miss_s[name] = self.miss_s.get(name, 0.0) + row[4] - row[3]
        return result

    def generator(self, name: str, gen):
        """Resume spans for a generator: the call counts once, every
        ``next`` is timed as a span of the same name."""
        nid = self.name_id(name)
        self.calls[name] = self.calls.get(name, 0) + 1
        while True:
            row = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                self._close(row, False)
                return
            except BaseException:
                self._close(row, True)
                raise
            self._close(row, False)
            yield item

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds, self seconds and errors.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        n = len(self.names)
        total = [0.0] * n
        self_s = [0.0] * n
        errors = [0] * n
        for row in self.spans:
            dur = row[4] - row[3]
            total[row[0]] += dur
            self_s[row[0]] += dur
            errors[row[0]] += row[5]
            if row[1] >= 0:
                self_s[self.spans[row[1]][0]] -= dur
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": self.calls.get(name, 0), "s": total[i],
                         "self_s": self_s[i], "errors": errors[i]}
            if name in MEMOIZED:
                out[name]["hits"] = self.hits.get(name, 0)
                out[name]["miss_s"] = self.miss_s.get(name, 0.0)
        return out

    def dump(self) -> dict:
        return {"names": self.names,
                "columns": ["name", "parent", "request", "start_s", "end_s", "error"],
                "spans": self.spans}


def _resolve(hb, path: str):
    owner_name, *middle, attr = path.split(".")
    owner = getattr(hb, owner_name)
    for part in middle:
        owner = getattr(owner, part)
    return owner, attr


def instrument(hb, tracer: Tracer):
    """Install span wrappers at every boundary; returns an undo function."""
    saved = []
    for name, path in BOUNDARIES:
        owner, attr = _resolve(hb, path)
        raw = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapper = classmethod(_wrap(tracer, name, raw.__func__))
        elif inspect.isgeneratorfunction(target):
            wrapper = _wrap_generator(tracer, name, target)
        else:
            wrapper = _wrap(tracer, name, target, target if name in MEMOIZED else None)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def undo():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
    return undo


def _wrap(tracer: Tracer, name: str, fn, cache=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, cache)
    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.generator(name, fn(*args, **kwargs))
    return wrapper


def count_calls(fn, package_dir) -> dict:
    """Run ``fn`` under cProfile and return {(file, line, name): calls} for
    every Python function under ``package_dir``; builtins are not profiled."""
    prof = cProfile.Profile(builtins=False)
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    prof.create_stats()
    prefix = str(package_dir)
    return {key: stat[1] for key, stat in prof.stats.items() if key[0].startswith(prefix)}


def code_key(fn) -> tuple:
    code = getattr(fn, "__func__", fn).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)
