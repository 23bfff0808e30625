// Positive cases: allocation and map iteration inside //hot:path functions.
package hotescape_body

// lookup is a hot-path probe that allocates a scratch slice every call.
//
//hot:path
func lookup(idx int, table []uint64) []int {
	scratch := make([]int, 0, 4) // want `make inside //hot:path function lookup`
	if idx < len(table) {
		scratch = append(scratch, idx) // want `append inside //hot:path function lookup`
	}
	return scratch
}

// tally walks a map on the hot path.
//
//hot:path
func tally(counts map[string]int) int {
	total := 0
	for _, v := range counts { // want `map iteration inside //hot:path function tally`
		total += v
	}
	return total
}

// deferred allocates inside a closure that runs when the hot function does.
//
//hot:path
func deferred(n int) func() []byte {
	return func() []byte {
		return make([]byte, n) // want `make inside //hot:path function deferred`
	}
}
