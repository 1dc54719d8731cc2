"""``python -m illposed``: the command-line front end, as the console script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
