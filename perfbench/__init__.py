"""Search-engine benchmark for marginalia_ray (see README.md)."""
