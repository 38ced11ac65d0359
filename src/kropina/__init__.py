"""Numerical workbench for Kropina metrics.

Layers, each validated against the one below:

- expr / jets: scalar engine (expression DSL, exact truncated
  derivatives), validated in the tests against a finite-difference
  oracle
- riemann: Riemannian metric calculus on chart expressions
- generic: definition-level Finsler pipeline (spray, curvature,
  S-curvature, volume densities) for any admissible metric function
- forms: Kropina spaces, their invariants, closed-form curvature
  formulas, and navigation-data conversions
- einstein: weighted Ricci family and the regime checkers
- scenarios / workbench / reports / cli: scenario files, verification
  drivers, report documents, command line
"""
__version__ = "0.1.0"
