// Negative cases: callees whose only make is constant-size and local
// (stack-allocated), callees that merely index preallocated storage, and
// hot callees policed directly in their own body rather than re-reported
// at every caller.
package hotescape_ok

// sumLocal's make has a constant size and never escapes: the compiler
// stack-allocates it, so charging the hot caller would be a false positive.
func sumLocal() int {
	buf := make([]byte, 64)
	s := 0
	for _, b := range buf {
		s += int(b)
	}
	return s
}

// index only reads preallocated storage.
func index(xs []int, i int) int {
	return xs[i%len(xs)]
}

//hot:path
func HotOK(xs []int, i int) int {
	return sumLocal() + index(xs, i)
}

// hotHelper is itself annotated: its body is policed directly, so callers
// do not re-report it.
//
//hot:path
func hotHelper(xs []int, v int) []int {
	return append(xs, v) // want `append inside //hot:path function hotHelper`
}

//hot:path
func HotCallsHot(xs []int, v int) []int {
	return hotHelper(xs, v)
}
