package stats

import (
	"math/rand"
	"testing"
)

// TestFastMatchesMathRand drives a Fast and a rand.New(rand.NewSource) with
// an identical randomized op sequence across many seeds and demands
// value-identical output at every step. This is the proof that the SoA hot
// loops, which swap *rand.Rand for Fast, keep the exact draw order the
// byte-identity goldens pin.
// newFast returns a generator producing the exact stream of
// rand.New(rand.NewSource(seed)).
func newFast(seed int64) *Fast {
	f := &Fast{}
	f.Seed(seed)
	return f
}

func TestFastMatchesMathRand(t *testing.T) {
	meta := rand.New(rand.NewSource(99))
	for _, seed := range []int64{0, 1, -1, 7, 42, 1<<62 + 12345, -987654321, 5577006791947779410} {
		ref := rand.New(rand.NewSource(seed))
		f := newFast(seed)
		for step := 0; step < 5000; step++ {
			switch op := meta.Intn(7); op {
			case 0:
				if got, want := f.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d step %d Uint64: got %d want %d", seed, step, got, want)
				}
			case 1:
				if got, want := f.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d step %d Int63: got %d want %d", seed, step, got, want)
				}
			case 2:
				if got, want := f.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d step %d Float64: got %v want %v", seed, step, got, want)
				}
			case 3:
				if got, want := f.Int31(), ref.Int31(); got != want {
					t.Fatalf("seed %d step %d Int31: got %d want %d", seed, step, got, want)
				}
			case 4:
				n := int32(1 + meta.Intn(100))
				if got, want := f.Int31n(n), ref.Int31n(n); got != want {
					t.Fatalf("seed %d step %d Int31n(%d): got %d want %d", seed, step, n, got, want)
				}
			case 5:
				// Mix power-of-two (mask path) and odd sizes (rejection path).
				n := 1 << uint(meta.Intn(20))
				if meta.Intn(2) == 0 {
					n += meta.Intn(n)
				}
				if got, want := f.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d step %d Intn(%d): got %d want %d", seed, step, n, got, want)
				}
			case 6:
				n := int64(3)<<40 + int64(meta.Intn(1000))
				if got, want := f.Int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("seed %d step %d Int63n(%d): got %d want %d", seed, step, n, got, want)
				}
			}
		}
	}
}

// TestFastSeedReuse checks that re-seeding a used generator restarts the
// stream exactly — the property Grid.Reset relies on for pooled reuse.
func TestFastSeedReuse(t *testing.T) {
	f := newFast(123)
	var first [32]uint64
	for i := range first {
		first[i] = f.Uint64()
	}
	for i := 0; i < 1000; i++ { // scramble internal state
		f.Uint64()
	}
	f.Seed(123)
	for i := range first {
		if got := f.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed: got %d want %d", i, got, first[i])
		}
	}
	f.Seed(456)
	ref := rand.New(rand.NewSource(456))
	for i := 0; i < 100; i++ {
		if got, want := f.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d after cross-seed: got %d want %d", i, got, want)
		}
	}
}

// TestFastPanics pins the invalid-argument behavior to math/rand's.
func TestFastPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Intn":   func() { newFast(1).Intn(0) },
		"Int31n": func() { newFast(1).Int31n(-3) },
		"Int63n": func() { newFast(1).Int63n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(<=0): expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkFastFloat64(b *testing.B) {
	f := newFast(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Float64()
	}
	_ = sink
}

func BenchmarkMathRandFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
