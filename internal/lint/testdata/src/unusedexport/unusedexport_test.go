package unusedexport

func testedOnlyCaller() int { return TestedOnly() }
