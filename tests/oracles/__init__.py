"""Pure-Python reference twins of the runtime layers, kept as test oracles.

Each module here is the implementation a ``src/`` layer shipped before it
was rewritten for speed, kept verbatim so the differential suites can hold
the rewrite to it:

* ``hopcroft_karp_reference``, ``hungarian_reference``,
  ``stuffing_reference``, ``birkhoff_reference`` — the matching and
  decomposition substrates behind :mod:`repro.kernels`;
* ``schedulers`` — Solstice, TMS, Edmond and BvN with their pure-Python
  pipelines (subclasses of :mod:`repro.schedulers` overriding one method);
* ``prt_reference`` — the list-of-objects port reservation table behind
  :class:`repro.core.prt.PortReservationTable`;
* ``sunflow_reference`` — the literal Algorithm 1 beside the event-driven
  :meth:`repro.core.sunflow.SunflowScheduler.schedule_demand`.

Nothing in ``src/`` imports this package.
"""
