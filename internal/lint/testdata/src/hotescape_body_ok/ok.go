// Negative cases: unannotated growth helpers, hot functions that only index
// into preallocated storage, and map reads (not walks) on the hot path.
package hotescape_body_ok

// grow is the storage-growing helper pattern: it allocates, so it is simply
// not annotated //hot:path — the annotation is the contract.
func grow(reqAt []int64, idx int) []int64 {
	for len(reqAt) <= idx {
		reqAt = append(reqAt, -1)
	}
	return reqAt
}

// hasIdx is the shape the discipline wants: one word load from storage that
// grow maintained elsewhere.
//
//hot:path
func hasIdx(have []uint64, idx int32) bool {
	w := int(uint32(idx) >> 6)
	return w < len(have) && have[w]&(1<<(uint(idx)&63)) != 0
}

// probe reads a map by key — a probe, not an iteration — and ranges over a
// slice, both fine on the hot path.
//
//hot:path
func probe(blocks map[uint64]int, order []uint64) int {
	total := 0
	for _, h := range order {
		total += blocks[h]
	}
	return total
}

// hotNamedType makes sure the annotation scan only honours the exact //hot:path
// pragma line, not prose mentioning hot paths.
// This function is hot in spirit but unannotated, so allocation is allowed.
func hotNamedType(n int) []int {
	return make([]int, n)
}
