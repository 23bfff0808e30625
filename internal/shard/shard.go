// Package shard is the deterministic spatial-partitioning layer under the
// million-node grid worlds (DESIGN.md §13): it decides which shard owns
// which key (a grid cell index) and materializes that decision into a
// Plan — per-shard key lists plus the halo of foreign cells each shard
// must read at a tick boundary.
//
// The partition is contiguous balanced bands over [0, n): shard s owns the
// keys whose floor(key·k/n) is s, so band sizes differ by at most one key.
// On a row-major grid the bands are horizontal stripes, and each shard's
// halo is the row above and the row below its band — the smallest
// boundary-exchange volume a Moore-neighborhood grid admits up to rotation.
//
// Everything here is a pure function of (key count, shard count): the
// same world partitioned into 1, 4, or 16 shards assigns keys identically
// on every run. The sharded gridsim engine relies on that, together with
// its counter-mode randomness, to keep study output byte-identical at any
// shard count — ownership only decides which worker computes a cell, never
// what the cell computes.
package shard
