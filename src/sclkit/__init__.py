"""Exact certificates for commutator lengths, quasimorphisms and
conjugation-invariant norms on free, product and braid groups.

Everything is computed in exact rational arithmetic.  Claims come with
machine-checkable witnesses: decompositions that multiply back to their
targets, duality bounds that carry their defect provenance, and norms
that return the conjugators realising them.

The package root binds no names: import each one from the module that
defines it, as in ``from sclkit.scl import bavard_lower``.  The verifier
kernel is the seven modules that ``import sclkit.certio`` loads, where
every check ``sclkit verify`` runs lives: ``words``, ``groups``,
``braids``, ``quasimorphisms``, ``scl``, ``specs`` and ``certio``.
``norms`` and ``extension``, which only the acceptance suite runs, the
producer ``search``, ``suite`` and the command line ``cli`` sit outside it.
"""
