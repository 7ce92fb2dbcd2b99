"""Fixture project for the interprocedural graph-lint rules.

Laid out like a miniature of the real tree (models/, serving/, eval/,
kernels/) so the path-policy gates apply; tests lint this package with a
:class:`LintConfig` that selects the graph rules, whose ``exempt_paths`` is
empty and whose funnel/backend module names point here.

Violating lines carry a trailing ``# expect: RPLxxx`` marker; the tests
assert the finding set equals the marker set exactly, so every violation
must fire and every clean twin must stay silent.
"""
