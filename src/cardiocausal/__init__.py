"""Cardiorespiratory causal-path discovery from ECG and impedance
pneumography recordings.

The package extracts ten cardiorespiratory parameters per recording,
screens pairwise associations, runs an ensemble of structure-learning
methods per body position, aggregates a consensus graph, and tests
mediation hypotheses.

The modules are the API: import each public name from the one module that
defines it, as in ``from cardiocausal.pipeline import run_pipeline``.
"""
