"""Run one `cstacks` command with timing spans around the package's public functions.

    python3 perfbench/launcher.py SPANS_PATH ARG...

is `cstacks ARG...` (same stdout, stderr and exit status) with every binding
of each public function of the layer modules wrapped in a span: module-level
functions and the methods and classmethods of public classes, in every module
namespace that binds them (the package `__init__`, `cli`, `asymptotics`,
`analytic`, ...), so calls between modules are timed too.  `params` is not
wrapped: validation takes microseconds and runs in the series' inner loops.

Spans stay in memory until the command ends and are then written to
SPANS_PATH as JSON: one `[name, start, end, parent, raised, facts]` list per
call, with `time.perf_counter` times and `parent` the index of the enclosing
span (None for the root span `launcher`, which starts at the first line of
this file).  `facts` holds the work counts of a few functions (series order,
coefficient size, Simpson panels, profile points), taken after the span ends.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("qseries", "oracle", "bigfloat", "asymptotics", "analytic", "cli")
PACKAGE = "congruence_stacks"


def _arg(fn, name: str, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _series_facts(fn, args, kwargs, result) -> dict:
    coeffs = result.coeffs
    return {"order": _arg(fn, "order", args, kwargs),
            "coeff_bits": max(abs(max(coeffs)), abs(min(coeffs))).bit_length()}


# work counts recorded at the boundary of these functions
FACTS = {
    "qseries.stack_gf": _series_facts,
    "oracle.count_stacks": lambda fn, args, kwargs, result: {"n": _arg(fn, "n", args, kwargs)},
    "analytic.circle_profile": lambda fn, args, kwargs, result: {"points": len(result.nus)},
    # the integrand is a closure, so its time stays in simpson_refine's own
    "analytic.simpson_refine": lambda fn, args, kwargs, result: {"panels": 2 ** (len(result[1]) - 1)},
}


class Tracer:
    """Span recorder; `spans` holds `[name, start, end, parent, raised, facts]` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, False, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter() if start is None else start
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                self.end(record)
            if facts is not None:
                record[5] = facts(fn, args, kwargs, result)
            return result

        traced.perfbench_span = name
        return traced


def public_functions(modules: dict) -> list[tuple[str, object, str | None, object]]:
    """(span name, owner, attribute, function) for each public function of the layers.

    The owner is the defining module for module-level functions and the class
    for methods; classmethods and staticmethods are returned as such.
    """
    found = []
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{name}", module, name, obj))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        found.append((f"{layer}.{name}.{attr}", obj, attr, member))
    return found


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every public function of the layers in every namespace binding it.

    Returns the wrappers by span name.
    """
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wrappers: dict[str, object] = {}
    by_original: dict[int, object] = {}
    for span, owner, attr, member in public_functions(modules):
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = type(member)(tracer.wrap(span, member.__func__))
            setattr(owner, attr, wrapped)
            wrappers[span] = wrapped.__func__
            continue
        wrapped = tracer.wrap(span, member)
        wrappers[span] = wrapped
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
        else:
            by_original[id(member)] = (member, wrapped)
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = by_original.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return wrappers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.begin("launcher", start=T0)
    try:
        record = tracer.begin("launcher.import")
        cli = importlib.import_module(f"{PACKAGE}.cli")
        install(tracer)
        tracer.end(record)
        return cli.main(argv)
    finally:
        tracer.end(root)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
