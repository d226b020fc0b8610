"""The benchmark's tracer still finds every library function it wraps."""
import importlib.util
from pathlib import Path

import numpy as np

import rdbridge.blahut
import rdbridge.io_cli
from rdbridge.distortion import hamming
from rdbridge.measures import ProbabilityVector

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_traced_functions():
    # Entering the tracer looks up every function it traces by name, so a
    # renamed or deleted one fails here and not only in a traced benchmark
    # run.  Leaving it puts the library's own functions back.
    spans = _load_spans()
    solve = rdbridge.blahut.ba_fixed_point
    with spans.Tracer() as tracer:
        assert rdbridge.blahut.ba_fixed_point is not solve
        assert rdbridge.io_cli.ba_fixed_point is rdbridge.blahut.ba_fixed_point
        rdbridge.blahut.rd_curve(ProbabilityVector([0.7, 0.3]), hamming(2), np.array([1.0, 2.0]))
    assert rdbridge.blahut.ba_fixed_point is solve
    assert rdbridge.io_cli.ba_fixed_point is solve
    names = [span["name"] for span in tracer.spans]
    assert names.count("blahut.ba_fixed_point") == 2
    assert names[0] == "blahut.rd_curve"
