"""Static analyses: CFG construction, dataflow engine, liveness."""
