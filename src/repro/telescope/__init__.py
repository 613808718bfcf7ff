"""The network telescope: a darknet device, capture store, and the
classification/sanitization pipeline the paper runs on raw telescope data.
"""

from repro.telescope.darknet import Telescope
from repro.telescope.acknowledged import AcknowledgedScanners
from repro.telescope.classify import PacketClass, classify_capture

__all__ = [
    "Telescope",
    "AcknowledgedScanners",
    "PacketClass",
    "classify_capture",
]
