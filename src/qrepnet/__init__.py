"""Entanglement-routing simulator for repeater networks with mixed-quality nodes."""

from .fidelity import *
from .topology import *
from .routing import *
from .experiment import *

__version__ = "0.1.0"
