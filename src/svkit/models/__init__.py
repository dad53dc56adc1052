"""Network container, cube and baseline builders, checkpoints."""
