"""Out-of-process tracer: spans around every public call into a package.

``Tracer.install(prefix)`` wraps each public function and the constructor
of each public class defined in the modules named ``prefix`` or
``prefix.*``, in every module namespace that binds them: ``from .algebras
import verify`` binds the name again, and calls through that binding must be
seen too. Generator functions get one span per resumption. Each call records
a span ``(id, name, start, end, parent, job, note, size)`` in memory; ``note``
is an int return value or the raised exception's class (with its
``reason.kind`` when it has one), ``size`` comes from the ``sizes`` hook of
that name, called at the call boundary. ``names`` holds the span name of
everything wrapped. ``uninstall()`` restores every binding.

``self_times(spans)`` turns spans into self times: a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    def __init__(self, sizes=None):
        self.sizes = sizes or {}
        self.spans = []
        self.names = set()
        self.job = None
        self._stack = []
        self._saved = []  # (namespace, attribute, original) to restore

    # --- installing -------------------------------------------------------

    def install(self, prefix):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _defined_in(obj, prefix):
                    continue
                if inspect.isclass(obj):
                    if obj not in wrapped and "__init__" in vars(obj) and not issubclass(obj, BaseException):
                        wrapped[obj] = obj
                        self._wrap_constructor(obj)
                elif inspect.isfunction(obj):
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap_function(obj)
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap_function(self, fn):
        name = _label(fn.__module__, fn.__qualname__)
        self.names.add(name)
        size = self.sizes.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = self._open()
                    try:
                        value = next(inner)
                    except StopIteration:
                        self._close(sid, name, "stop", None)
                        return
                    except BaseException as exc:
                        self._close(sid, name, _exception_note(exc), None)
                        raise
                    self._close(sid, name, "yield", None)
                    yield value

            return generator

        @functools.wraps(fn)
        def function(*args, **kwargs):
            sid = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, name, _exception_note(exc), None)
                raise
            note = result if type(result) is int else None
            self._close(sid, name, note, size(args, kwargs, result) if size else None)
            return result

        return function

    def _wrap_constructor(self, cls):
        init = cls.__init__
        name = _label(cls.__module__, cls.__qualname__)
        self.names.add(name)
        size = self.sizes.get(name)

        @functools.wraps(init)
        def constructor(obj, *args, **kwargs):
            sid = self._open()
            try:
                init(obj, *args, **kwargs)
            except BaseException as exc:
                self._close(sid, name, _exception_note(exc), None)
                raise
            self._close(sid, name, None, size(args, kwargs, obj) if size else None)

        self._saved.append((cls, "__init__", init))
        cls.__init__ = constructor

    # --- recording --------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, time.perf_counter()))
        return sid

    def _close(self, sid, name, note, size):
        end = time.perf_counter()
        _, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[sid] = (sid, name, start, end, parent, self.job, note, size)


def _defined_in(obj, prefix):
    module = getattr(obj, "__module__", None) or ""
    return module == prefix or module.startswith(prefix + ".")


def _label(module, qualname):
    return f"{module.rpartition('.')[2]}.{qualname}"


def _exception_note(exc):
    kind = getattr(getattr(exc, "reason", None), "kind", None)
    return f"raise:{type(exc).__name__}" + (f":{kind}" if kind else "")


def self_times(spans):
    """Self time per span id: duration minus the time its children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own

