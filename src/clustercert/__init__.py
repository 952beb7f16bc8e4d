"""clustercert: exact cluster-structure analysis for finite semimetric spaces.

The package computes distance-distribution statistics, builds the greedy
cluster decomposition, searches for optimal structures exactly at small
scale, evaluates measure lower bounds, and verifies the whole inequality
catalogue against brute-force oracles. All decidable comparisons use exact
rational arithmetic.
"""
from .bounds import *
from .clustering import *
from .generators import *
from .serialize import *
from .space import *
from .stats import *
from .verify import *

__version__ = "0.1.0"
