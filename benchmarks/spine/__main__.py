"""``python -m benchmarks.spine``: same command line as ``run.py``."""

from benchmarks.spine.run import main

raise SystemExit(main())
