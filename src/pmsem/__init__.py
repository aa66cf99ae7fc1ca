"""Complex-pair semantics for dot-notation formulas.

Formulas parse into a shared AST, evaluate to Meanings (families of
sets of tagged complex pairs), and are decided for truth, tautology and
finite-world logical truth.  Independent classical evaluators referee
the semantics, and a Hilbert-style checker validates proof scripts over
the five disjunction/negation axioms.
"""
__version__ = "0.1.0"
