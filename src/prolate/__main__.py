"""``python -m prolate`` runs the command-line interface."""

from .cli import console

console()
