"""Crosswalk interaction simulator.

A deterministic simulator for an autonomous vehicle negotiating an
unsignalized mid-block crosswalk with a gap-accepting pedestrian, with two
interchangeable longitudinal controllers (a four-mode hybrid state machine
and an exactly solved decision-process baseline) and a seeded Monte Carlo
harness for safety, efficiency, and smoothness evaluation.
"""

__version__ = "0.1.0"
