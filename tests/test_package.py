"""Public export list of the package."""

import gfaloha


def test_every_export_resolves():
    missing = [name for name in gfaloha.__all__ if not hasattr(gfaloha, name)]
    assert missing == []


def test_removed_names_stay_unexported():
    # the scalar frame draw and the second sweep driver were merged into
    # traffic.draw_frames and experiment.run_experiment
    for name in ("sweep", "Replica", "VirtualFrame", "draw_virtual_frame"):
        assert name not in gfaloha.__all__
        assert not hasattr(gfaloha, name)
