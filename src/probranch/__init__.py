"""Exact-arithmetic toolkit for a recursion-free process calculus with
non-deterministic and probabilistic choice: parsing, operational
semantics with combined transitions, strong / branching /
rooted-branching probabilistic bisimilarity checking, and the equational
theories as a rewriting engine with replayable proof traces.

Names are imported from their modules, e.g. `probranch.equivalence`."""

__version__ = "0.1.0"
