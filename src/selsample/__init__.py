"""Selectivity estimation for select/join queries via index-aligned random samples.

The package provides: immutable integer tables with synthetic generators
(`tables`), a mini-SQL query model and parser (`queries`), VC-dimension
bound and sample-size calculators (`vcbounds`), index-aligned sample
construction (`sampling`), exact and sample-based selectivity estimators
(`execution`), an MCV + equi-depth histogram baseline (`stats`), and a
workload/experiment harness with a CLI (`harness`, `cli`).

`import selsample as ss` loads each module on first use (PEP 562): `ss.X`
imports the first module of `_MODULES` whose `__all__` names X, and
`ss.<module>` imports that module. The modules' `__all__` lists are the
public API, and `ss.__all__` is their union. So `import selsample.vcbounds`
loads neither numpy nor any other module of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("vcbounds", "tables", "queries", "sampling", "execution", "stats", "harness")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return import_module(f".{name}", __name__)
    if name == "__all__":
        return [n for m in _MODULES for n in import_module(f".{m}", __name__).__all__]
    # Dunder probes (copy, inspect, pytest) must not import every module.
    if not (name.startswith("__") and name.endswith("__")):
        for m in _MODULES:
            module = import_module(f".{m}", __name__)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
