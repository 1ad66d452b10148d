"""``python -m richardson``: the same command line as the ``richardson`` script."""

from .cli import main

main()
