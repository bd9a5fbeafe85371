"""Fixture package root.

This tree mirrors the ``repro`` package shape so the lint rules treat
its files as library modules; it lives under a ``fixtures`` directory,
which tree-wide lint runs never descend into.
"""
