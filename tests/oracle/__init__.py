"""Reference implementations: deleted slow paths kept as the spec.

Each module holds the plain form of a fast path in ``src/`` — the code
the fast path replaced — so a test can assert the two agree bit for bit.
"""
