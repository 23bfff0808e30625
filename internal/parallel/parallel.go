// Package parallel is the deterministic experiment fan-out used by every
// hot evaluation path in this repository: a bounded worker pool whose
// results are collected in task order and whose randomness is derived per
// task from a root seed, so that an ensemble of trials or a parameter sweep
// produces bit-identical output regardless of worker count or goroutine
// scheduling.
//
// The determinism contract has three parts:
//
//  1. Each task receives its own seed via DeriveSeed (a SplitMix64 mix of
//     the root seed and the task index), never a shared RNG, so no task's
//     random stream depends on execution order.
//  2. Results are written into a slot indexed by task and returned as an
//     ordered slice, so collection order is the submission order.
//  3. Errors are reported deterministically: the error of the lowest-index
//     failing task wins, whatever finished first. Once a task fails no new
//     task is claimed; tasks are claimed in index order, so every task
//     below the failing one has already been claimed and the winning error
//     is the one a full run would report.
//
// Panics inside a task are captured and attributed (task index + stack)
// rather than tearing down the process from an anonymous goroutine.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// one worker per available CPU (GOMAXPROCS).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError is a panic recovered from a task, attributed to the task that
// raised it.
type PanicError struct {
	// Task is the index of the task that panicked.
	Task int
	// Seed is the task's derived seed, when the entry point derives one
	// (Trials, or a caller that derives it with DeriveSeed and recovers its
	// own panics, as core's evaluation sweep does). Seeded reports whether
	// it is meaningful: Map and Sweep tasks carry no seed, and 0 is a valid
	// derived seed.
	Seed   int64
	Seeded bool
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error formats the panic with its task attribution and stack. Seeded tasks
// name their seed so a failing trial can be reproduced standalone.
func (e *PanicError) Error() string {
	if e.Seeded {
		return fmt.Sprintf("parallel: task %d (seed %d) panicked: %v\n%s", e.Task, e.Seed, e.Value, e.Stack)
	}
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// Map runs fn(0), fn(1), …, fn(n-1) across at most workers goroutines and
// returns the n results in task order. workers <= 0 means DefaultWorkers().
// A panicking task is converted to a *PanicError. If any task fails, Map
// claims no further task and returns a nil slice with the error of the
// lowest-index failing task — never a partial result set, so a failed sweep
// can't silently feed zero-valued rows into a table or figure downstream.
func Map[T any](workers, n int, fn func(task int) (T, error)) ([]T, error) {
	return mapSeeded(workers, n, nil, func(i int, _ int64) (T, error) {
		return fn(i)
	})
}

// mapSeeded is the shared pool under Map, Sweep and Trials. seedOf derives
// the per-task seed (nil when the entry point carries none); recovered
// panics are attributed with the task index and, when seeded, the seed that
// reproduces the failure. The first failure stops the claiming of new
// tasks; tasks already claimed run to completion.
func mapSeeded[T any](workers, n int, seedOf func(int) int64, fn func(task int, seed int64) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool
	run := func(i int) {
		var seed int64
		if seedOf != nil {
			seed = seedOf(i)
		}
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Task: i, Seed: seed, Seeded: seedOf != nil, Value: r, Stack: debug.Stack()}
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}()
		results[i], errs[i] = fn(i, seed)
	}
	if workers == 1 {
		// Run inline: same semantics, no goroutine overhead, and stack
		// traces that point at the caller.
		for i := 0; i < n && !failed.Load(); i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !failed.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Sweep runs fn over every parameter in params (a parallel parameter scan)
// and returns the results in parameter order.
func Sweep[P, T any](workers int, params []P, fn func(i int, p P) (T, error)) ([]T, error) {
	return Map(workers, len(params), func(i int) (T, error) {
		return fn(i, params[i])
	})
}

// Trials runs n Monte-Carlo replicates, handing each one its own seed
// derived from root via DeriveSeed, and returns the results in trial order.
// Because every trial owns an independent seed, the ensemble is identical
// for any worker count.
func Trials[T any](workers int, root int64, n int, fn func(trial int, seed int64) (T, error)) ([]T, error) {
	return mapSeeded(workers, n, func(i int) int64 {
		return DeriveSeed(root, i)
	}, fn)
}

// The repo's one SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the
// finalizer, the per-task seed derivation built on it, and the sequential
// stream the fault engines draw from. The sharded grid engine's
// counter-mode draws use Mix64 and Gamma directly.

// Gamma is SplitMix64's additive golden-ratio increment.
const Gamma = 0x9E3779B97F4A7C15

// Mix64 is the SplitMix64 finalizer: a fixed bijective avalanche on 64
// bits. It is pure, so a (seed, step, key) counter mixed through it is an
// independent draw that no shared sequential stream has to hand out.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// DeriveSeed maps (root, index) to a well-mixed per-task seed using one
// SplitMix64 step at state root + (index+1)·gamma. Nearby roots and indices
// yield statistically independent streams, and the mapping is a fixed pure
// function, so derived seeds never depend on scheduling.
func DeriveSeed(root int64, index int) int64 {
	return int64(Mix64(uint64(root) + (uint64(index)+1)*Gamma))
}

// Stream is a SplitMix64 PRNG: 8 bytes of state, so per-node fault streams
// stay cheap even at the paper's 10,000-node scale. The zero value is the
// stream of seed 0.
type Stream struct{ state uint64 }

// NewStream seeds a stream. Seeds should come from DeriveSeed, so nearby
// streams (node i and node i+1) are statistically independent.
func NewStream(seed int64) Stream { return Stream{state: uint64(seed)} }

// Next advances the state by Gamma and mixes it out.
func (s *Stream) Next() uint64 {
	s.state += Gamma
	return Mix64(s.state)
}

// Float64 returns a uniform draw in [0, 1) from the top 53 bits.
func (s *Stream) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. A p <= 0 draws nothing, so a
// disabled fault family never advances its stream.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	return s.Float64() < p
}
