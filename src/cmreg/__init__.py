"""Exact graded commutative algebra for regularity of Ext and Tor over
graded complete intersections A = Q/(z_1..z_c).

The package computes minimal graded free resolutions over Q and over A,
Castelnuovo-Mumford regularity, Ext/Tor modules with their gradings, ideal
powers I^n N and quotients N/I^n N, certified upper bounds for the
reduction exponent rho_N(I), CI (Eisenbud) operators, and the trigraded
twist calculus that explains the bound lines rho*n - f*i + e observed on
regularity grids.
"""

from __future__ import annotations

__version__ = "0.1.0"
