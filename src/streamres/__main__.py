"""`python -m streamres`: the same commands as the `streamres` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
