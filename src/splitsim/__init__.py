"""Two-party split-learning simulator for binary classification.

Implements gradient label-leakage attacks (norm and cosine scoring),
the leak-AUC privacy metric, and label-protection mechanisms (iso
Gaussian, max_norm alignment, and the optimized marvell perturbation
with its noise-covariance solver and privacy certificates), plus an
experiment harness for privacy-utility tradeoff sweeps.
"""

__version__ = "0.1.0"
