"""Classical communication-assisted models of singlet-state correlations.

One shared random direction plus a little classical signalling is enough
to reproduce, and with unbounded messages to exceed, the quantum
correlation curve of a planar two-particle spin experiment.  This
package simulates those protocols trial by trial, evaluates their
closed-form correlation laws, and scores both against the CHSH bounds.
"""

__version__ = "0.1.0"
