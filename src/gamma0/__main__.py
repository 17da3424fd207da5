"""``python -m gamma0 ...`` runs the ``gamma0`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
