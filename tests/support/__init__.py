"""Test-only helpers: the MioDB verifier, reference oracles and state probes.

Nothing in ``src/`` imports this package.  A helper lives here when only
tests call it; once a product path needs it, it moves back into the
engine it inspects.
"""
