"""roughweyl: finite-element spectra of weighted Laplacians on rough 2-D metrics.

Each layer module's `__all__` is the one declaration of what it makes
public; the package root re-exports all of them, in layer order.
"""

__version__ = "0.1.0"

from . import mesh, fields, assembly, spectral, varprin, weyl, cli
from .mesh import *
from .fields import *
from .assembly import *
from .spectral import *
from .varprin import *
from .weyl import *
from .cli import *

__all__ = ["__version__", *mesh.__all__, *fields.__all__, *assembly.__all__,
           *spectral.__all__, *varprin.__all__, *weyl.__all__, *cli.__all__]
