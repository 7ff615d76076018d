"""Semismooth Newton solver for frictional fracture contact with line searches.

The package couples a nonsmooth contact formulation (normal clamping plus
Coulomb friction with dilation) to small poromechanical and
thermoporomechanical model problems, and solves them with a Newton method
whose globalization tracks contact-state transitions instead of the residual.
"""

__version__ = "0.1.0"
