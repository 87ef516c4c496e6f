"""Every function that the benchmark's tracer wraps still exists in the
package, so renaming one fails the test suite and not only a traced
benchmark run."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:  # a method, wrapped in its class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"
