"""perfbench's copy of the receiver table agrees with receiver.RECEIVERS.

perfbench/checks.py must not import qillum, so perfbench/receivers.py keeps
its own labels and PC noise; this holds the copy to the one table.
"""
import importlib.util
from pathlib import Path

from qillum.receiver import RECEIVERS


def _perfbench_receivers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "receivers.py"
    spec = importlib.util.spec_from_file_location("perfbench_receivers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_labels_and_pc_noise_are_the_receiver_table():
    copy = _perfbench_receivers()
    threshold = {label for label, rx in RECEIVERS.items() if rx.bound is None}
    bound = {label for label, rx in RECEIVERS.items() if rx.bound is not None}
    assert len(copy.THRESHOLD_RECEIVERS) == len(threshold)
    assert set(copy.THRESHOLD_RECEIVERS) == threshold
    assert len(copy.BOUND_RECEIVERS) == len(bound)
    assert set(copy.BOUND_RECEIVERS) == bound
    assert copy.PC_EXTRA_NOISE == {
        label: (rx.added_noise.eps_return, rx.added_noise.eps_idler)
        for label, rx in RECEIVERS.items() if rx.added_noise is not None}
