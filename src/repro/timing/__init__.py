"""Register-file timing model and system-performance composition."""
