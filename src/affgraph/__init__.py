"""Depth-informed interaction graphs: qualitative spatio-temporal relation
extraction, graph embedding, and unsupervised affordance clustering."""

__version__ = "0.1.0"
