"""``python -m dyck4d``: the same command line as the ``dyck4d`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
