"""MD-GAN reproduction: multi-discriminator GANs for distributed datasets.

A pure-NumPy, from-scratch reproduction of *MD-GAN: Multi-Discriminator
Generative Adversarial Networks for Distributed Datasets* (Hardy, Le Merrer,
Sericola - IPDPS 2019), including:

* ``repro.nn`` - the neural-network substrate (layers, losses, optimizers),
* ``repro.datasets`` - synthetic MNIST/CIFAR10/CelebA-like datasets and
  worker partitioning,
* ``repro.simulation`` - the emulated cluster's accounting (Table III
  traffic meter, compute ledgers, liveness, crash injection),
* ``repro.models`` - the paper's GAN architectures,
* ``repro.metrics`` - dataset score (MNIST/Inception-style) and FID,
* ``repro.core`` - standalone, FL-GAN and MD-GAN trainers,
* ``repro.runtime`` - execution backends (serial/resident) for the
  per-worker training phase,
* ``repro.analysis`` - the paper's cost model, stated once
  (Tables II-IV, Figure 2),
* ``repro.experiments`` - runners regenerating every table and figure.
"""

__version__ = "1.1.0"

from . import core, datasets, metrics, models, nn, runtime, simulation

__all__ = [
    "__version__",
    "nn",
    "datasets",
    "simulation",
    "models",
    "metrics",
    "core",
    "runtime",
]
