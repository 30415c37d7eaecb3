"""Gaussian target-detection numerics for correlated two-mode sources.

Closed-form receiver statistics for the conjugate-and-mix chain, quantum
and classical Chernoff-type error bounds, and seeded sampling that checks
every formula against simulation.

Each name lives in the module that defines it and is imported from there
(`from qillum.receiver import snr_pc`), so `import qillum` alone loads
neither numpy nor any of the modules.
"""

__version__ = "0.1.0"
