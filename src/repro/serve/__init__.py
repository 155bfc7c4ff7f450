"""Clustering-as-a-service: a long-lived HTTP API over the artifact store.

``repro serve`` turns the batch pipeline into a service: clients POST
pipeline specs (or parameter-selection requests) to ``/v1/jobs``, poll
per-cell progress streamed from the executor's ``on_result`` hook, and
fetch the finished ``summary.json``/``report.txt`` — byte-identical to
what the batch CLI writes for the same spec, because both routes run
through :mod:`repro.api` and share the content-addressed
:class:`~repro.experiments.artifacts.ArtifactStore`.  Identical
submissions are deduplicated against active jobs and served from cache
once complete.

Layout:

* :mod:`repro.serve.schemas` — frozen request/response dataclasses and
  the ``[serve]`` config table (:class:`ServeSettings`);
* :mod:`repro.serve.jobs` — the bounded worker pool
  (:class:`JobManager`) bridging HTTP submissions to :mod:`repro.api`;
* :mod:`repro.serve.server` — the stdlib threading HTTP server and its
  route handlers;
* :mod:`repro.serve.client` — a small urllib client
  (:class:`ServeClient`) used by the tests, the load bench and CI.

Each name loads its submodule when first read
(:mod:`repro.utils.exports`), so importing
:class:`~repro.serve.schemas.ServeSettings` (which the pipeline config
layer does) never drags in the HTTP machinery.
"""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "JOB_STATES": ".schemas",
        "JobManager": ".jobs",
        "JobProgress": ".schemas",
        "JobView": ".schemas",
        "QueueFullError": ".jobs",
        "ReproServer": ".server",
        "ServeClient": ".client",
        "ServeError": ".client",
        "ServeSettings": ".schemas",
        "make_server": ".server",
    },
)
