"""Fault-injection scripting for scenario-exact and randomized runs.

Every helper here is a thin constructor over the network's
:class:`~repro.sim.faultplane.FaultPlane` (the one place a message is
held or dropped) or over crash and suspicion calls:

* :func:`~repro.faults.injection.crash_during_multicast` -- the surgical
  tool behind Figures 1(b), 3 and 4: a plane hook that crashes a process
  *while* it multicasts a particular message, dropping the sends to all
  but a chosen subset of destinations.
* :class:`~repro.faults.injection.FaultSchedule` -- a declarative list of
  timed crash/partition/heal/one-way/suspect actions, applied to a
  simulation.
* :func:`~repro.faults.injection.random_fault_schedule` -- seeded random
  schedules for soak and property testing.
"""

from repro.faults.injection import (
    CrashDuringMulticast,
    FaultAction,
    FaultSchedule,
    crash_during_multicast,
    random_fault_schedule,
)

__all__ = [
    "CrashDuringMulticast",
    "FaultAction",
    "FaultSchedule",
    "crash_during_multicast",
    "random_fault_schedule",
]
