"""DVI hardware models: LVM, LVM-Stack, and the combined engine."""
