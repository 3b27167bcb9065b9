"""Preemptive thread scheduling substrate (section 6)."""
