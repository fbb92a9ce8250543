"""The ``tictac-repro`` command-line layer.

Scenarios are declarative data in the :mod:`repro.api` registry, run by
:class:`repro.api.Session`; this package is the thin CLI shell over that
facade (``python -m repro.experiments`` / the ``tictac-repro`` console
script). Programmatic callers use the facade directly::

    from repro.api import Session

    with Session(scale="quick") as session:
        rs = session.run("fig7")
        rs.to_csv("results")
"""
