package integration

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
)

// TestHealStudyGolden pins `partition experiment healstudy -seed 1`. The
// heal study is the only study that drives gridsim's link-fault and
// chaos-loss paths (flaky, hijack-recovery), and its faults-injected column
// pins the per-kind fault counts as well as the simulation outcome.
func TestHealStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four 24-trial ensembles")
	}
	t.Run("legacy", func(t *testing.T) {
		want, err := os.ReadFile("testdata/healstudy_seed1.golden")
		if err != nil {
			t.Fatal(err)
		}
		study, err := core.New(1)
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
