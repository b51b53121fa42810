"""Exact desk-scale computations tying partial Hasse flags, exterior-power
filtration levels, Bruhat cell orders and zip-group orbits together over
small finite fields."""

__version__ = "0.1.0"
