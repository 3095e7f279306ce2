"""``repro.analysis`` — the paper's cost model, stated once.

:mod:`repro.analysis.cost` holds Table I's inputs, the per-phase operation
counts the trainers charge to their compute ledgers, and the closed forms
behind Table II (computation / memory), Table III (communication), Table IV
(instantiated CIFAR10 costs) and Figure 2 (ingress traffic vs batch size).
"""

from .cost import *  # noqa: F401,F403
from .cost import __all__  # noqa: F401
