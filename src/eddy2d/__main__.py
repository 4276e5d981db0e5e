"""`python -m eddy2d` runs the command line interface."""
from .cli import entry

entry()
