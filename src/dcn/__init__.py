"""Exact curve-neighborhood combinatorics for the infinite dihedral group.

The public names load on first access (PEP 562): ``import dcn`` loads no
submodule, and ``dcn.curve_neighborhood`` loads only ``dihedral`` and
``neighborhood``.  Each name is then cached here, so later lookups are plain
attribute reads.
"""

import sys

__version__ = "0.1.0"

# Dependency order: each module imports only modules before it, so a lookup
# loads nothing past the module that defines the name.
_MODULES = ("dihedral", "neighborhood", "moment_graph", "oracle")


def _module(name: str):
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def _public() -> list[str]:
    return [name for module in _MODULES for name in _module(module).__all__]


def __getattr__(name: str):
    # ``from dcn import cli`` asks for ``cli`` here before it imports the submodule;
    # ``cli`` defines no public name, so it is never looked up in the walk below.
    if name in _MODULES or name == "cli":
        return _module(name)
    if name == "__all__":
        value = _public()
    else:
        for module in map(_module, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list({*globals(), *_MODULES, *_public()})
