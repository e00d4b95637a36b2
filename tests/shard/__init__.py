"""Tests for the partition-parallel DES (repro.shard) and forked starts."""
