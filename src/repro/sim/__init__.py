"""Simulators: functional emulator, trace format, and timing models."""
