"""sobex: quantitative Sobolev extension and Neumann heat-kernel checks.

The package certifies, numerically and at desk scale on model surfaces,
an explicit reflection-based Sobolev extension operator near smooth
domain boundaries (cutoffs, comparison constants, operator-norm bound)
together with the downstream Neumann heat-kernel inequalities it
supports (diagonal bounds, volume doubling, Gagliardo-Nirenberg, Kato
quantities, eigenvalue lower bounds).

Layout:

* :mod:`sobex.surfaces`   analytic model surfaces, geodesics, Jacobi fields
* :mod:`sobex.comparison` closed-form comparison machinery and bounds
* :mod:`sobex.fermi`      domains, normal (tube) charts, regularity checks
* :mod:`sobex.extension`  the extension operator and its H1 certification
* :mod:`sobex.heat`       discrete Neumann spectra, kernels, diagnostics
* :mod:`sobex.cli`        the ``sobex`` command-line front end
"""

from . import comparison, extension, fermi, heat, surfaces
from .comparison import *
from .extension import *
from .fermi import *
from .heat import *
from .surfaces import *

# each module's __all__ is the one list of its public names
__all__ = (comparison.__all__ + surfaces.__all__ + fermi.__all__ + extension.__all__
           + heat.__all__)

__version__ = "0.1.0"
