package shard

// Plan materializes the band partition over a concrete world: the owner of
// every key, each shard's key list, and each shard's halo — the foreign
// keys whose state the shard must read when it ticks its own, i.e. the
// per-tick boundary-exchange set. Like the engines it serves, the Plan is
// held structure-of-arrays: one flat backing slice per relation with
// per-shard offsets, so a 10⁶-key world costs a handful of allocations
// however many shards it splits into.
//
// All lists are in ascending key order. That is the merge-order half of the
// determinism contract: any fold over a shard's keys — and any fold over
// shards 0..k-1 of per-shard results — visits keys in a fixed total order,
// so merged statistics cannot depend on which worker ticked which shard.
type Plan struct {
	// owner[key] is the shard that owns key.
	owner []int32
	// keys/keyOff: shard s owns keys[keyOff[s]:keyOff[s+1]], ascending.
	keys   []int32
	keyOff []int32
	// halo/haloOff: shard s reads halo[haloOff[s]:haloOff[s+1]], ascending —
	// every key that neighbors one of s's keys but belongs to another shard.
	halo    []int32
	haloOff []int32
}

// BuildPlan splits the keys [0, n) into k contiguous bands — key belongs
// to shard key·k/n — and derives per-shard key and halo lists. The caller
// guarantees 1 <= k <= n; the multiply stays in int range for any world
// this repository can hold (n·k < 2^63). adj returns a key's neighborhood
// (any order; the grid passes its flat Moore-neighbor cache). adj may be
// nil for worlds with no read-across-shards coupling, leaving every halo
// empty.
func BuildPlan(n, k int, adj func(key int) []int32) *Plan {
	p := &Plan{
		owner:  make([]int32, n),
		keys:   make([]int32, n),
		keyOff: make([]int32, k+1),
	}
	// Bands are contiguous and ascending, so the key list is the identity
	// and each band's end offset is one past its last key.
	for key := 0; key < n; key++ {
		s := key * k / n
		p.owner[key] = int32(s)
		p.keys[key] = int32(key)
		p.keyOff[s+1] = int32(key + 1)
	}

	p.haloOff = make([]int32, k+1)
	if adj == nil || k == 1 {
		// One shard owns everything (or nothing is read across shards):
		// every halo is empty.
		return p
	}
	// stamp[key] = s+1 marks key as already in shard s's halo, so each
	// foreign neighbor is listed once however many owned cells touch it.
	// Keys ascend within each shard and neighbors are deduped on first
	// sight, then sorted per shard below, since adj may list them in any
	// order.
	stamp := make([]int32, n)
	for s := 0; s < k; s++ {
		for _, key := range p.keys[p.keyOff[s]:p.keyOff[s+1]] {
			for _, nb := range adj(int(key)) {
				if p.owner[nb] != int32(s) && stamp[nb] != int32(s)+1 {
					stamp[nb] = int32(s) + 1
					p.halo = append(p.halo, nb)
				}
			}
		}
		p.haloOff[s+1] = int32(len(p.halo))
		sortI32(p.halo[p.haloOff[s]:p.haloOff[s+1]])
	}
	return p
}

// sortI32 is an insertion sort: per-shard halos are nearly sorted already
// (owned keys are visited ascending), so this beats a general sort and
// allocates nothing.
func sortI32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Shards returns the shard count.
func (p *Plan) Shards() int { return len(p.keyOff) - 1 }

// Owner returns the shard owning key.
func (p *Plan) Owner(key int) int { return int(p.owner[key]) }

// Keys returns shard s's owned keys in ascending order. The slice aliases
// the plan's backing array and must not be mutated.
func (p *Plan) Keys(s int) []int32 { return p.keys[p.keyOff[s]:p.keyOff[s+1]] }

// Halo returns shard s's halo — foreign keys it reads each tick — in
// ascending order. The slice aliases the plan's backing array and must not
// be mutated.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (p *Plan) Halo(s int) []int32 { return p.halo[p.haloOff[s]:p.haloOff[s+1]] }

// HaloCells returns the total boundary-exchange volume per tick: the sum
// of all per-shard halo sizes.
func (p *Plan) HaloCells() int { return len(p.halo) }
