package faults

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// mooreEdges lists every directed edge of a size×size Moore grid (the
// gridsim topology) as (from, to) pairs.
func mooreEdges(size int) [][2]int {
	var edges [][2]int
	for i := 0; i < size*size; i++ {
		row, col := i/size, i%size
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				r, c := row+dr, col+dc
				if (dr == 0 && dc == 0) || r < 0 || r >= size || c < 0 || c >= size {
					continue
				}
				edges = append(edges, [2]int{i, r*size + c})
			}
		}
	}
	return edges
}

// TestCompiledLinksMatchLinkDown: the compiled link table (LinkClass once
// per edge, FlapClock once per step, LinkDown per contact) answers exactly
// as linkDown at time step·stepDur, for every directed edge of a 25×25
// Moore grid at every step over two periods of the slowest flap, and the
// per-kind faults.injected counts match linkDown's tally. The 7 s step
// divides neither flap period, so the clock visits every wrap position.
func TestCompiledLinksMatchLinkDown(t *testing.T) {
	const size, stepDur = 25, 7 * time.Second
	edges := mooreEdges(size)
	for _, sc := range []Scenario{
		Flaky(),
		HijackRecovery(),
		{Name: "drop-heavy", Links: LinkSpec{
			DropFraction: 0.45, OneWayFraction: 0.25, FlapFraction: 0.15,
			FlapPeriod: 3 * time.Minute, FlapDuty: 0.4,
		}},
	} {
		t.Run(sc.Name, func(t *testing.T) {
			o := obs.NewMetricsOnly()
			gi, err := NewGridInjector(sc, 5, size*size, stepDur, -1, o)
			if err != nil {
				t.Fatal(err)
			}
			cls := make([]LinkClass, len(edges))
			phase := make([]time.Duration, len(edges))
			for e, ft := range edges {
				cls[e], phase[e] = gi.LinkClass(ft[0], ft[1])
			}
			var want [LinkFlap + 1]uint64
			steps := int(2*gi.sc.Links.FlapPeriod/stepDur) + 1
			for step := 0; step <= steps; step++ {
				clock := gi.FlapClock(step)
				now := time.Duration(step) * stepDur
				for e, ft := range edges {
					wantClass, wantDown := linkDown(gi.linkSeed, gi.sc.Links, ft[0], ft[1], now)
					if wantDown {
						want[wantClass]++
					}
					down := cls[e] != LinkUp && gi.LinkDown(cls[e], phase[e], clock)
					if down != wantDown || wantClass != cls[e] {
						t.Fatalf("edge %d→%d step %d: compiled (%d, down=%v), linkDown (%d, down=%v)",
							ft[0], ft[1], step, cls[e], down, wantClass, wantDown)
					}
				}
			}
			reg := o.Registry()
			kinds := [LinkFlap + 1]string{LinkDrop: kindLinkDrop, LinkOneWay: kindLinkOneWay, LinkFlap: kindLinkFlap}
			for c := LinkDrop; c <= LinkFlap; c++ {
				if got := reg.Counter("faults.injected", obs.L("kind", kinds[c])).Value(); got != want[c] {
					t.Errorf("faults.injected{kind=%s} = %d, linkDown tally %d", kinds[c], got, want[c])
				}
			}
			if want[LinkFlap] == 0 || (sc.Links.DropFraction > 0 && want[LinkDrop] == 0) {
				t.Errorf("scenario exercised too few fault kinds: %v", want)
			}
		})
	}
}
