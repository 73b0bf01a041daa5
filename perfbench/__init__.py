"""The simulator's benchmark: sim-rate on layer-isolating workloads."""
