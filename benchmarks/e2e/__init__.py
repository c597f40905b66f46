"""End-to-end benchmark of the PEERING workflow (see README.md here).

One process, one client, closed loop: a researcher's client announces and
steers prefixes through the muxes, the muxes vet them, the simulated
Internet converges, the data plane follows, probes and catchments come
back.  ``run.py`` is the entry point; ``schema.py`` names every metric.
"""
