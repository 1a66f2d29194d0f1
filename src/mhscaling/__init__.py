"""Proposal-scale tuning and mean-field limits for Metropolis algorithms.

Modules:

* ``coefficients``  normal CDF and the limiting diffusion/drift/acceptance/
                    entropy-rate functions
* ``tuning``        rate-optimal, acceptance-matched and entropy-derivative rules
* ``targets``       1-D potentials and moment functionals
* ``chains``        finite-n random walk and Langevin-adjusted samplers
* ``limits``        Gaussian moment ODE, particle system, MALA limit objects
* ``experiments``   square-bias sweeps and the robustness surface
* ``cli``           command-line entry point
"""

__version__ = "0.1.0"
