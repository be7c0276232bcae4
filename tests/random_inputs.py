"""Random Ising models and MADE networks for the test modules.

Each draw depends only on its numpy Generator or seed, so the models and
nets behind a pinned digest are rebuilt exactly.
"""

import numpy as np

from fairmc.ising import IsingModel
from fairmc.made import MadeNetwork


def random_model(rng, n, n_terms=8, max_order=2, integer=True):
    """`n_terms` terms on n sites drawn from the Generator `rng`: per term an
    order uniform in 1..min(max_order, n), that many distinct sites (sorted),
    and a coefficient of -1 or +1 if `integer`, else a standard normal."""
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, min(max_order, n) + 1))
        sites = sorted(rng.choice(n, size=order, replace=False).tolist())
        coeff = float(rng.choice([-1, 1])) if integer else float(rng.normal())
        terms.append((sites, coeff))
    return IsingModel.from_terms(n, terms)


def random_net(n, seed=0, scale=0.3, bias_scale=None):
    """MadeNetwork(n) initialised from `seed`, then, from a Generator seeded
    with seed + 1, its weights shifted by standard normals times `scale` and
    its biases set to standard normals times `bias_scale` (default: `scale`)."""
    net = MadeNetwork(n, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    bias_scale = scale if bias_scale is None else bias_scale
    net.weights = [w + rng.normal(size=w.shape) * scale for w in net.weights]
    net.biases = [rng.normal(size=b.shape) * bias_scale for b in net.biases]
    return net
