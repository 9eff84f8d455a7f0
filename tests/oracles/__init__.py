"""Test-only reference implementations.

Each module keeps the straightforward, set-based form of an algorithm whose
shipped version works on bitsets, so property tests can check that the two
agree.  Nothing under ``src/`` imports from here.
"""
