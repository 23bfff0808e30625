package stats

import "math/rand"

// Fast is a draw-identical, allocation-free replica of the Go 1 math/rand
// generator (the 607-entry additive lagged-Fibonacci source behind
// rand.NewSource) with the rand.Rand derivation methods inlined on top.
//
// Why it exists: the gridsim exchange loop draws two variates per cell per
// step, and with *rand.Rand every draw pays a Source64 interface dispatch
// that the compiler cannot devirtualize or inline. Fast generates draws in
// full 607-entry blocks — the recurrence applied as two tight in-place
// loops — and hands them out from a buffer, so the per-draw Uint64 is a
// three-instruction read that inlines (with its whole derivation chain)
// into the //hot:path loops (DESIGN.md §12). The generator algorithm is frozen
// by the Go 1 compatibility promise — rand.NewSource(seed) must produce
// the same stream forever — which is what makes a replica safe.
//
// Why it is byte-identical: Seed does not re-implement math/rand's seeding
// (which walks an unexported 607-entry cooked table). Instead it draws the
// first 607 outputs x[1..607] from a throwaway rand.NewSource(seed) and
// inverts the recurrence to recover the post-seed state vector. Each draw
// computes x[i] = vec[feed]+vec[tap] and stores the sum at feed, and the
// source starts at tap=0, feed=334, so with init[] the post-seed vector:
//
//	i =   1..273: x[i] = init[334-i] + init[607-i]   (both slots unwritten)
//	i = 274..334: x[i] = init[334-i] + x[i-273]      (tap slot overwritten at draw i-273)
//	i = 335..607: x[i] = init[941-i] + x[i-273]
//
// Solving the last two bands directly and back-substituting band three into
// band one recovers all 607 init entries; Fast then continues from draw #1
// of the same stream. The equivalence is pinned exhaustively by
// TestFastMatchesMathRand.
//
// Block generation: draw i of a block writes slot (334-i) mod 607 reading
// slot (607-i) mod 607 — always 273 ahead (mod 607) of the written slot —
// so one block is exactly
//
//	vec[p] += vec[p+273]  for p = 333 … 0
//	vec[p] += vec[p-334]  for p = 606 … 334
//
// in that order, with the block's outputs being the updated slots in the
// same order. refill runs those two loops and lays the outputs into buf in
// draw order.
type Fast struct {
	vec [fastLen]int64
	buf [fastLen]uint64
	pos int // next unread index in buf; fastLen forces a refill
}

const (
	fastLen = 607 // rngLen in math/rand
	fastTap = 273 // rngTap in math/rand
)

// Seed repositions f at the start of rand.NewSource(seed)'s stream. It is
// the arena-reset entry point: re-seeding reuses the receiver, so pooled
// grids pay no RNG allocation per trial.
func (f *Fast) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var x [fastLen + 1]uint64
	for i := 1; i <= fastLen; i++ {
		x[i] = src.Uint64()
	}
	// Recover the post-seed state (uint64 wrap-around matches int64
	// addition in the source).
	var init [fastLen]uint64
	for i := fastTap + 1; i <= 334; i++ { // init[0..60]
		init[334-i] = x[i] - x[i-fastTap]
	}
	for i := 335; i <= fastLen; i++ { // init[334..606]
		init[941-i] = x[i] - x[i-fastTap]
	}
	for i := 1; i <= fastTap; i++ { // init[61..333]
		init[334-i] = x[i] - init[607-i]
	}
	for i, v := range init {
		f.vec[i] = int64(v)
	}
	f.pos = fastLen
}

// refill advances the recurrence one full block, lays the 607 outputs into
// buf in draw order, and returns the first of them (with pos set past it) —
// so the Uint64 fast path stays within the inlining budget by making
// exactly one call on the empty-buffer branch.
//
//go:noinline
func (f *Fast) refill() uint64 {
	vec := &f.vec
	buf := &f.buf
	k := 0
	for p := 333; p >= 0; p-- {
		x := vec[p] + vec[p+fastTap]
		vec[p] = x
		buf[k] = uint64(x)
		k++
	}
	for p := 606; p >= 334; p-- {
		x := vec[p] + vec[p-334]
		vec[p] = x
		buf[k] = uint64(x)
		k++
	}
	f.pos = 1
	return buf[0]
}

// Uint64 returns the next source output.
//
//hot:path
func (f *Fast) Uint64() uint64 {
	if f.pos < fastLen {
		x := f.buf[f.pos]
		f.pos++
		return x
	}
	return f.refill()
}

// Int63 mirrors rand.Rand.Int63.
//
//hot:path
func (f *Fast) Int63() int64 { return int64(f.Uint64() &^ (1 << 63)) }

// Float64 mirrors rand.Rand.Float64, including the redraw-on-1.0 loop. The
// buffered draw is fused in directly (rather than composed from Int63)
// to stay within the compiler's mid-stack inlining budget; the slow path
// re-reads the unconsumed buffer slot, so both orders are draw-identical.
//
//hot:path
func (f *Fast) Float64() float64 {
	p := f.pos
	if p < fastLen {
		v := float64(int64(f.buf[p]&^(1<<63))) / (1 << 63)
		if v < 1 {
			f.pos = p + 1
			return v
		}
	}
	return f.float64Slow()
}

// float64Slow is the full Float64 semantics from the current stream
// position: empty buffer, or a 63-bit draw that rounds to 1.0 and must be
// consumed and redrawn.
//
//go:noinline
func (f *Fast) float64Slow() float64 {
	for {
		v := float64(f.Int63()) / (1 << 63)
		if v < 1 {
			return v
		}
	}
}

// Int31 mirrors rand.Rand.Int31.
//
//hot:path
func (f *Fast) Int31() int32 { return int32(f.Int63() >> 32) }

// Int31n mirrors rand.Rand.Int31n: power-of-two mask fast path, otherwise
// rejection sampling to kill modulo bias, draw count matching math/rand
// draw for draw. Only the power-of-two case is fused inline (it is the
// interior-cell case of the gossip loop, which always has 8 neighbors);
// everything else runs the full semantics in a noinline slow path.
//
//hot:path
func (f *Fast) Int31n(n int32) int32 {
	p := f.pos
	if n > 0 && n&(n-1) == 0 && p < fastLen {
		f.pos = p + 1
		return int32((f.buf[p]&^(1<<63))>>32) & (n - 1)
	}
	return f.int31nSlow(n)
}

// int31nSlow is the full Int31n semantics from the current stream
// position: invalid n, empty buffer, or a non-power-of-two bound needing
// rejection sampling.
//
//go:noinline
func (f *Fast) int31nSlow(n int32) int32 {
	if n <= 0 {
		panic("stats: invalid argument to Int31n")
	}
	v := f.Int31()
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	for v > max {
		v = f.Int31()
	}
	return v % n
}

// Int63n mirrors rand.Rand.Int63n.
//
//hot:path
func (f *Fast) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return f.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := f.Int63()
	for v > max {
		v = f.Int63()
	}
	return v % n
}

// Intn mirrors rand.Rand.Intn.
//
//hot:path
func (f *Fast) Intn(n int) int {
	if n <= 0 {
		panic("stats: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(f.Int31n(int32(n)))
	}
	return int(f.Int63n(int64(n)))
}

// Bernoulli draws a success indicator with probability p, draw-compatible
// with Bernoulli(r, p) on a *rand.Rand at the same stream position.
//
//hot:path
func (f *Fast) Bernoulli(p float64) bool { return f.Float64() < p }
