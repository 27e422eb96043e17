"""The one-command performance benchmark (see ``run.py`` and README.md)."""
