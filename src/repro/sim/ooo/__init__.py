"""Out-of-order core: renamer, pipeline model, statistics."""
