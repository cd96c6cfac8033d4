"""Battery-degradation-aware microgrid look-ahead scheduling.

Synthetic aging data, a hierarchical two-stage neural degradation
quantifier, an exact scheduling MILP over a horizon of any length, and the
iterative loop that ties them together.

Each layer is imported from its own module: `degradesched.aging`, `.net`,
`.quantifier`, `.milp`, `.lod`, `.storage` and `.cli`. Importing the package
loads none of them (nor numpy or scipy); the package itself holds only
`__version__`.
"""

__version__ = "0.1.0"
