package unusedexport

func testedOnlyCaller() int { return TestedOnly() }

func describeAll(plans []Plan) string {
	out := ""
	for _, p := range plans {
		out += p.Describe()
	}
	return out
}
