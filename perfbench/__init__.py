"""Layer benchmark of the self-join engine (see ``perfbench/README.md``)."""
