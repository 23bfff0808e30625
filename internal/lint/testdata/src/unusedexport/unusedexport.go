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

// Plan is a registry seam: Run is called through the interface and Name is
// not, so Name is reported although every implementation satisfies Plan and
// its own Name method therefore counts as referenced.
type Plan interface {
	Name() string // want `exported interface method Plan\.Name is called by no non-test file`
	Run() error
	// Describe is called from unusedexport_test.go alone.
	Describe() string // want `exported interface method Plan\.Describe is called by no non-test file`
}

type spatialPlan struct{}

func (spatialPlan) Name() string     { return "spatial" }
func (spatialPlan) Run() error       { return nil }
func (spatialPlan) Describe() string { return "" }

func runPlans() error {
	for _, p := range []Plan{spatialPlan{}} {
		if err := p.Run(); err != nil {
			return err
		}
	}
	return nil
}
