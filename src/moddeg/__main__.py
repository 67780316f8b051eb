"""``python -m moddeg``: the same command as the ``moddeg`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
