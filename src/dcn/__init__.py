"""Exact curve-neighborhood combinatorics for the infinite dihedral group."""

from . import dihedral, moment_graph, neighborhood, oracle
from .dihedral import *
from .moment_graph import *
from .neighborhood import *
from .oracle import *

__version__ = "0.1.0"

__all__ = dihedral.__all__ + moment_graph.__all__ + neighborhood.__all__ + oracle.__all__
