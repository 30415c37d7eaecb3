"""Receiver labels of `qi sweep` and the noise each PC receiver adds, in nu-units.

Shared by workloads.py (which runs qillum) and checks.py (which must not import it).
"""
THRESHOLD_RECEIVERS = ("QI+PC", "QI+Cal+PC", "QI+Het+PC", "CS+Hom")
BOUND_RECEIVERS = ("QI-QCB", "QI-QBB", "QI+Het+CCB", "CS-QCB")
# (eps_return, eps_idler) added on top of the scenario's own noise
PC_EXTRA_NOISE = {"QI+PC": (0.0, 0.0), "QI+Cal+PC": (1.0, 0.0), "QI+Het+PC": (1.0, 1.0)}
