"""Run one `cnls` command with a span around every call of a public function
of the package's layers.

    python bench/tracer.py SPANS.npz -- <cnls arguments>

The wrapper replaces a function under every name its callers look it up
by: `verify` imports `step` by name, so `verify.step` is replaced as well as
`dynamics.step`, and the `verify.ALL_CHECKS` tuple gets the wrapped checks.
Spans stay in memory and are written to SPANS.npz when the command ends:
per span its name id, its parent span (-1 for none), start and end times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("numerics", "moments", "waves", "spectrum", "variational",
          "dynamics", "verify")

# values taken from a function's result and summed per span name
RESULT_COUNTS = {
    "variational.petviashvili_solve": lambda r: r.iterations,
    "spectrum.unstable_eigenvalue": lambda r: r is not None,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {name: 0 for name in RESULT_COUNTS}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = (self.name_id, self.parent,
                                             self.start, self.end, self.stack)
        clock = time.perf_counter
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                self.counts[name] += count(result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each layer and rebind every name,
        in any loaded `cnls` module, that refers to one of them."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cnls" and not mod_name.startswith("cnls."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, tuple) and any(
                        inspect.isfunction(o) and o in wrapped for o in obj):
                    setattr(mod, attr, tuple(wrapped.get(o, o) for o in obj))

    def write(self, path: str) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 count_names=np.array(list(self.counts)),
                 count_values=np.array(list(self.counts.values()), dtype=np.int64))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.npz -- <cnls arguments>\n")
        return 2
    import cnls.cli
    tracer = Tracer()
    tracer.install({layer: importlib.import_module(f"cnls.{layer}")
                    for layer in LAYERS})
    try:
        return cnls.cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
