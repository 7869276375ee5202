"""Exact invariants and bounds for divisorial valuations of the plane."""

from .bounds import *
from .configurations import *
from .errors import *
from .invariants import *
from .surface import *

__version__ = "0.1.0"
