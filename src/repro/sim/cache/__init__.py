"""Cache models: set-associative caches and the two-level hierarchy."""
