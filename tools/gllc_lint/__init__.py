"""Repo-convention and drift linter for gllc.

A small checker framework (see core.py) with one module per checker
under checkers/.  Run `python3 -m gllc_lint` with tools/ on the
module path (`PYTHONPATH=tools` from the repo root), or through the
`lint` CMake target.
"""

__all__ = ["core", "cli"]
