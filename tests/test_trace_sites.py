"""The benchmark's tracer (``perfbench.tracing``) times dualvt by wrapping
functions at the module attribute where dualvt looks them up.  A frame of
``run_pipeline`` must pass through each stream-frame site, so that a
refactor which calls a function under another name, or through a local
alias, fails here rather than leaving its metric to read 0."""

import importlib
import threading

from conftest import small_scene
from dualvt.fusion import make_seeded_weights, run_pipeline
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from perfbench.tracing import WRAP_SITES, Tracer


def small_tables():
    bundle, heights = small_scene(0)
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    return bundle, ht, lss, make_seeded_weights(11, bundle.spec.channels)


def test_a_pipeline_frame_records_every_stream_site():
    bundle, ht, lss, weights = small_tables()
    tracer = Tracer()
    with tracer.unit("frame"):
        run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights)
    names = {s.name for s in tracer.spans}
    assert {"scatter.ht", "scatter.lss", "fusion.caf", "fusion.prob", "fusion.assemble",
            "nnops.conv2d"} <= names
    # both heads' convolutions run inside their head's span
    conv_parents = {tracer.spans[s.parent].name for s in tracer.spans
                    if s.name == "nnops.conv2d"}
    assert conv_parents == {"fusion.caf", "fusion.prob"}


def test_every_wrapped_call_runs_on_the_calling_thread(monkeypatch):
    """The tracer keeps one span stack for all threads, so a wrapped function
    called on a worker would open its span inside whichever span the caller
    has open.  In a two-thread `disable-M` frame, whose scatter and heads'
    convolutions both split their work over workers, every call to a wrapped
    site comes from the calling thread."""
    seen = []

    def recording(fn, name):
        def call(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return call

    for module_name, attr, name in WRAP_SITES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recording(getattr(module, attr), name))
    bundle, ht, lss, weights = small_tables()
    run_pipeline(bundle.feats, bundle.depths, bundle.masks, ht, lss, weights, threads=2,
                 disable_mask=True)
    assert {"scatter.ht", "scatter.lss", "fusion.caf", "fusion.prob", "fusion.assemble",
            "nnops.conv2d"} <= {name for name, _ in seen}
    assert {ident for _, ident in seen} == {threading.get_ident()}
