"""Command-line interface: ``python -m repro`` / the ``repro`` console script.

Subcommands (see ``python -m repro --help``):

* ``run`` — execute a declarative TOML/JSON pipeline config end-to-end
  through the resumable artifact store;
* ``report`` — re-render the reports of a pipeline from stored artifacts;
* ``bench [SUITE]`` — run one :mod:`repro.bench` suite and gate it
  against a recorded baseline (the CI benchmark-regression gates);
* ``datasets list`` — the data-set registry;
* ``validate-config`` — schema-check pipeline configs without running them.
"""

from repro.cli.main import main

__all__ = ["main"]
