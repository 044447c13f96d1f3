"""Run one signsum CLI request with a span around every public function.

Usage: python trace_child.py SPANS_FILE REQUEST_ID ARG...

Wraps each function listed in a signsum module's ``__all__`` (classes are
left alone) and rebinds the wrapper wherever another signsum module
imported the same function by name, so calls across modules are recorded
too.  Then runs ``signsum.cli.main(ARG...)``.  Stdout is the program's own;
spans stay in memory and are written to SPANS_FILE as JSON at exit.

A span is [name, start, end, parent, request_id, m, arg_key, size]: ``m``
is the length of the first argument when it is a vector (or the integer
itself), ``arg_key`` tells repeated calls on one vector object apart, and
``size`` is the row count returned by build_constraints.
"""

import functools
import inspect
import json
import sys
import time

import signsum
import signsum.cli

# Called once per SignVector constructed, i.e. once per solution row.
_SKIP = {"max_vector_length"}
_SIZE = {"build_constraints": lambda result: len(result.rows)}


def _arg_m(args):
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):
        return first
    m = getattr(first, "m", None)
    return m if isinstance(m, int) else None


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.keys: dict[int, int] = {}
        self.alive: list = []  # keeps first arguments alive so ids stay unique

    def _key(self, obj) -> int:
        if id(obj) not in self.keys:
            self.keys[id(obj)] = len(self.keys)
            self.alive.append(obj)
        return self.keys[id(obj)]

    def wrap(self, name: str, fn):
        size_of = _SIZE.get(fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            key = self._key(args[0]) if args else None
            span = [name, 0.0, 0.0, parent, self.request_id, _arg_m(args), key, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if size_of is not None:
                span[7] = size_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "signsum" or name.startswith("signsum.")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in _SKIP):
                    wrappers[fn] = self.wrap(f"{short}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])


def main() -> int:
    out_path, request_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(request_id)
    tracer.install()
    try:
        return signsum.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
