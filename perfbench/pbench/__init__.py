"""The benchmark's library: inputs, workloads, runner, tracing and oracle."""
