"""The repository's one repeatable benchmark (see ``run.py``)."""
