"""The benchmark's tracer (``perfbench.tracing``) times dualvt by wrapping
functions at the module attribute where dualvt looks them up.  A frame of
``run_pipeline`` must pass through each stream-frame site, so that a
refactor which calls a function under another name, or through a local
alias, fails here rather than leaving its metric to read 0."""

from conftest import small_scene
from dualvt.fusion import make_seeded_weights, run_pipeline
from dualvt.height_stream import precompute_ht_table
from dualvt.lift_stream import precompute_lss_table
from perfbench.tracing import Tracer


def test_a_pipeline_frame_records_every_stream_site():
    bundle, heights = small_scene(0)
    ht = precompute_ht_table(bundle.rigs, bundle.grid, heights, bundle.dspec)
    lss = precompute_lss_table(bundle.rigs, bundle.grid, bundle.dspec)
    weights = make_seeded_weights(11, bundle.spec.channels)
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
