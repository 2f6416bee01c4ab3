"""No solver lives here. The closed forms of a game whose veto agents win on
their own are the unanimity form of ``enumeration._exact_game``, which every
exact solver asks. The module stays importable only because the benchmark's
tracer (``bench/tracing.py``) lists ``trees`` among the layers it wraps; it
goes when that list drops it.
"""
