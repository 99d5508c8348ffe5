"""The benchmark's tracer wraps rank2go functions by name: every binding it
names must exist, so that a change that deletes or renames one fails here,
not in a benchmark run.

perfbench/tracer.py is read as text and run in a fresh module object, so
no bytecode is written beside it.
"""

import sys
import types
from pathlib import Path

import rank2go.cli  # noqa: F401  (install reads every traced module)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


def binding(mod_name: str, path: str):
    """The object a SPAN_SPECS entry names, as install reads it."""
    module = sys.modules[f"rank2go.{mod_name}"]
    if "." in path:
        cls_name, meth = path.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, path)


def test_every_traced_binding_resolves_and_is_restored():
    tracer = load_tracer()
    originals = {
        (mod_name, path): binding(mod_name, path)
        for mod_name, path, *_ in tracer.SPAN_SPECS
    }
    installation = tracer.install(tracer.Tracer())
    try:
        for (mod_name, path), original in originals.items():
            assert binding(mod_name, path) is not original, (mod_name, path)
    finally:
        installation.uninstall()
    for (mod_name, path), original in originals.items():
        assert binding(mod_name, path) is original, (mod_name, path)
