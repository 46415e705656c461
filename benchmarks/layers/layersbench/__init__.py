"""The `layers` benchmark: four serving workloads through ``/query``
with an outside-in per-layer trace. See ``../README.md``.

Nothing here is imported by the product; the product is imported only
through its public entry points (``loadgen`` for the served path,
``replay`` for the per-layer pass, which resolves each entry point by
name).
"""
