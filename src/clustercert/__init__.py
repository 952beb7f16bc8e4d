"""clustercert: exact cluster-structure analysis for finite semimetric spaces.

The package computes distance-distribution statistics, builds the greedy
cluster decomposition, searches for optimal structures exactly at small
scale, evaluates measure lower bounds, and verifies the whole inequality
catalogue against brute-force oracles. All decidable comparisons use exact
rational arithmetic.

Each layer module is in ``sys.modules`` from the package import on; its code runs on
the first read of one of its attributes, so a command pays only for the layers it uses.
"""
import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# In dependency order, so a name's lookup runs few layers its own layer does not import.
_LAYERS = ("space", "serialize", "stats", "clustering", "bounds", "generators", "verify")
_LOCK = threading.RLock()
_RUNNING = set()


class _Layer(types.ModuleType):
    """A layer whose code has not run. The first attribute read runs it under one re-entrant
    lock: another thread's read waits for the whole module, while the running thread sees
    the partial module, as in a plain import. Then it becomes a plain module."""

    def __getattribute__(self, name):
        with _LOCK:
            if type(self) is _Layer and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    types.ModuleType.__getattribute__(self, "__loader__").exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _RUNNING.discard(self)
        return types.ModuleType.__getattribute__(self, name)


for _name in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    globals()[_name].__class__ = _Layer


def __getattr__(name):
    if name == "__all__":
        return [n for layer in _LAYERS for n in globals()[layer].__all__]
    for layer in _LAYERS:
        if name in globals()[layer].__all__:
            return getattr(globals()[layer], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
