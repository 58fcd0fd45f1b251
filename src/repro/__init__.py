"""repro — reproduction of Huang et al., "A Study of Publish/Subscribe
Systems for Real-Time Grid Monitoring" (IPDPS 2007).

The package builds, entirely in Python, the two middleware systems the paper
benchmarks — a JMS-compliant NaradaBrokering-like broker and the Relational
Grid Monitoring Architecture (R-GMA) — on top of a deterministic
discrete-event model of the paper's 8-node cluster testbed, plus the
power-grid monitoring workload and the measurement harness that regenerates
every figure and table in the paper's evaluation.

Quickstart::

    from repro.harness import runner
    result = runner.run("fig7", scale="smoke")
    print(result.render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
