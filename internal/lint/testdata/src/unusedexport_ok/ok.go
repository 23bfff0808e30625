// Negative cases: exports referenced from non-test code in the declaring
// package, and methods that satisfy an interface the program names —
// declared here, from the standard library, or consulted dynamically by fmt
// (error, fmt.Stringer) — so a call through the interface can reach them.
package unusedexport_ok

import "sort"

func Used() int { return 1 }

type Shape interface{ Area() float64 }

// Square's Area satisfies Shape, which total names.
type Square struct{ side float64 }

func (s Square) Area() float64 { return s.side * s.side }

func total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// byLen's methods satisfy sort.Interface, the parameter type of sort.Sort.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Status is printed through fmt, which consults fmt.Stringer and error.
type Status int

func (s Status) String() string { return "status" }
func (s Status) Error() string  { return "failed" }

func run(xs []string) (float64, int, Status) {
	sort.Sort(byLen(xs))
	return total([]Shape{Square{side: 2}}), Used(), 0
}

// Renderer's method is called through a type parameter it constrains,
// Closer's through an interface that embeds it, and Sizer's as a method
// value: each is a use of the interface method.
type Renderer interface{ Render() string }

type Closer interface{ Close() error }

type ReadCloser interface {
	Closer
	Read() int
}

type Sizer interface{ Size() int }

func renderAll[R Renderer](rs []R) string {
	out := ""
	for _, r := range rs {
		out += r.Render()
	}
	return out
}

func closeIt(rc ReadCloser) error {
	if rc.Read() == 0 {
		return nil
	}
	return rc.Close()
}

func sizeOf(s Sizer) func() int { return s.Size }

var _ = renderAll[Renderer]
var _, _ = closeIt, sizeOf
