"""The MNM simulator's benchmark; ``perfbench/run.py`` is the command."""
