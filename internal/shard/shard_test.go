package shard

import "testing"

// gridAdj returns the Moore-neighborhood adjacency for a size×size grid in
// the same shape gridsim feeds BuildPlan.
func gridAdj(size int) func(key int) []int32 {
	return func(key int) []int32 {
		var out []int32
		row, col := key/size, key%size
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				if dr == 0 && dc == 0 {
					continue
				}
				r, c := row+dr, col+dc
				if r < 0 || r >= size || c < 0 || c >= size {
					continue
				}
				out = append(out, int32(r*size+c))
			}
		}
		return out
	}
}

// TestRoutingIsPure rebuilds a plan and re-queries owners in reverse
// order: answers must be identical and equal to the band formula — routing
// is a pure function of (n, k).
func TestRoutingIsPure(t *testing.T) {
	const n, k = 5000, 8
	a, b := BuildPlan(n, k, nil), BuildPlan(n, k, nil)
	for key := n - 1; key >= 0; key-- {
		if a.Owner(key) != b.Owner(key) || a.Owner(key) != key*k/n {
			t.Fatalf("owner of %d unstable or off the band formula", key)
		}
	}
}

// TestPlanPartitions checks that a plan's key lists partition [0, n):
// ascending within each shard, disjoint, total length n, consistent with
// Owner.
func TestPlanPartitions(t *testing.T) {
	const size = 40
	n := size * size
	for _, k := range []int{1, 4, 16, 7, n} {
		p := BuildPlan(n, k, gridAdj(size))
		if p.Shards() != k || len(p.owner) != n {
			t.Fatalf("k=%d: plan shape %d/%d", k, p.Shards(), len(p.owner))
		}
		seen := make([]bool, n)
		total := 0
		for s := 0; s < k; s++ {
			keys := p.Keys(s)
			total += len(keys)
			for i, key := range keys {
				if i > 0 && keys[i-1] >= key {
					t.Fatalf("k=%d: shard %d keys not ascending", k, s)
				}
				if seen[key] {
					t.Fatalf("k=%d: key %d owned twice", k, key)
				}
				seen[key] = true
				if p.Owner(int(key)) != s {
					t.Fatalf("k=%d: Owner(%d) != %d", k, key, s)
				}
			}
		}
		if total != n {
			t.Fatalf("k=%d: keys cover %d of %d", k, total, n)
		}
	}
}

// TestRoutersCoverAndBalance checks the band partition's routing
// invariants: every key gets an owner in range, and shard loads differ by
// at most one key.
func TestRoutersCoverAndBalance(t *testing.T) {
	const n = 10000
	for _, k := range []int{1, 4, 16, 7} {
		p := BuildPlan(n, k, nil)
		if p.Shards() != k {
			t.Fatalf("k=%d: Shards() = %d", k, p.Shards())
		}
		counts := make([]int, k)
		for key := 0; key < n; key++ {
			s := p.Owner(key)
			if s < 0 || s >= k {
				t.Fatalf("k=%d: owner %d out of range for key %d", k, s, key)
			}
			counts[s]++
		}
		minLen, maxLen := n, 0
		for s, c := range counts {
			if c != len(p.Keys(s)) {
				t.Fatalf("k=%d: shard %d owns %d keys but lists %d", k, s, c, len(p.Keys(s)))
			}
			minLen, maxLen = min(minLen, c), max(maxLen, c)
		}
		if maxLen-minLen > 1 {
			t.Errorf("k=%d: shard sizes span [%d, %d], want a spread of at most one key",
				k, minLen, maxLen)
		}
	}
}

// TestHaloSufficiency proves the boundary-exchange contract the sharded
// tick relies on: for every shard, every neighbor of an owned cell is
// either owned or in the halo — a shard reading owned ∪ halo sees the full
// input of each of its cells. Halos must also be ascending, deduplicated,
// and strictly foreign.
func TestHaloSufficiency(t *testing.T) {
	const size = 32
	n := size * size
	adj := gridAdj(size)
	for _, k := range []int{1, 4, 16, 7} {
		p := BuildPlan(n, k, adj)
		if k == 1 && p.HaloCells() != 0 {
			t.Fatalf("single shard should have empty halo, got %d", p.HaloCells())
		}
		for s := 0; s < k; s++ {
			inView := map[int32]bool{}
			for _, key := range p.Keys(s) {
				inView[key] = true
			}
			halo := p.Halo(s)
			for i, h := range halo {
				if i > 0 && halo[i-1] >= h {
					t.Fatalf("k=%d: shard %d halo not ascending/deduped", k, s)
				}
				if p.Owner(int(h)) == s {
					t.Fatalf("k=%d: shard %d halo contains owned key %d", k, s, h)
				}
				inView[h] = true
			}
			for _, key := range p.Keys(s) {
				for _, nb := range adj(int(key)) {
					if !inView[nb] {
						t.Fatalf("k=%d: shard %d cannot see neighbor %d of owned %d",
							k, s, nb, key)
					}
				}
			}
		}
	}
}

// TestRangeHaloIsRowBoundary pins the band partition's headline property on
// a row-major grid: each interior band's halo is exactly the row above plus
// the row below (2·size cells; edge bands half that).
func TestRangeHaloIsRowBoundary(t *testing.T) {
	const size, k = 32, 4
	n := size * size
	p := BuildPlan(n, k, gridAdj(size))
	for s := 0; s < k; s++ {
		want := 2 * size
		if s == 0 || s == k-1 {
			want = size
		}
		if got := len(p.Halo(s)); got != want {
			t.Errorf("shard %d halo = %d cells, want %d", s, got, want)
		}
	}
}
