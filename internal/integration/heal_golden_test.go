package integration

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
)

// TestHealStudyGolden pins `partition experiment healstudy -seed 1` under
// both grid engines. The heal study is the only study that drives gridsim's
// link-fault and chaos-loss paths (flaky, hijack-recovery), and its
// faults-injected column pins the per-kind fault counts as well as the
// simulation outcome.
func TestHealStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four 24-trial ensembles per engine")
	}
	for _, tc := range []struct {
		name, golden string
		opts         []core.Option
	}{
		{"legacy", "testdata/healstudy_seed1.golden", nil},
		{"shards1", "testdata/healstudy_seed1_sharded.golden", []core.Option{core.WithShards(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			study, err := core.New(1, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := study.HealStudy()
			if err != nil {
				t.Fatal(err)
			}
			if got := []byte(res.Render()); !bytes.Equal(got, want) {
				t.Errorf("heal study diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
