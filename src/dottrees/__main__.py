"""``python -m dottrees``: the same command line as the ``dottrees`` script."""
from .cli import main

main()
