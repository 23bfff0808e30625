package service_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/service"
)

// TestRunSpecConcurrentSpatialAttacks runs eight `attack spatial` specs of
// one seed at once. Each announces and withdraws §V-A sub-prefix hijacks,
// so studies sharing the seed's memoized population must each route over a
// table of their own: the concurrent outputs must equal the sequential ones
// byte for byte, with no duplicate-announcement error.
func TestRunSpecConcurrentSpatialAttacks(t *testing.T) {
	const n = 8
	specs := make([]core.Spec, n)
	for i := range specs {
		specs[i] = buildSpec(t, "attack", "spatial", 5, core.WithNetworkNodes(100+i))
	}
	run := func(i int) (string, error) {
		res, err := service.RunSpec(specs[i], service.RunOptions{})
		if err != nil {
			return "", err
		}
		return res.Output, nil
	}
	want, err := parallel.Map(1, n, run)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := parallel.Map(n, n, run)
	if err != nil {
		t.Fatalf("concurrent: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("network_nodes %d: concurrent output differs from sequential\nwant:\n%s\ngot:\n%s", 100+i, want[i], got[i])
		}
	}
}
