// Positive cases: exported funcs, methods and types that no non-test file
// references, including ones only a _test.go file reaches.
package unusedexport

func Unused() {} // want `exported func Unused is referenced by no non-test file`

// TestedOnly is reached from unusedexport_test.go alone, which does not count.
func TestedOnly() int { return 1 } // want `exported func TestedOnly is referenced by no non-test file`

type Dead struct{} // want `exported type Dead is referenced by no non-test file`

// OnlyMethods is named by its own method receivers alone, which do not count;
// its String method satisfies fmt.Stringer, so the method is not reported.
type OnlyMethods struct{} // want `exported type OnlyMethods is referenced by no non-test file`

func (OnlyMethods) String() string { return "" }

type Live struct{ n int }

// Get is called below; Reset is not, and no named interface has it.
func (l *Live) Get() int { return l.n }

func (l *Live) Reset() { l.n = 0 } // want `exported method Live\.Reset is referenced by no non-test file`

func use() int {
	var l Live
	return l.Get()
}
