// Spatial hijack: the §V-A scenario end to end. A malicious AS announces
// more-specific BGP prefixes to capture a victim AS's Bitcoin nodes, an
// organization's whole AS portfolio, and finally the mining backbone of
// Table IV. Demonstrates cost (prefix announcements) vs advantage (nodes
// and hash rate captured) — the trade-off Figure 4 quantifies.
//
//	go run ./examples/spatialhijack
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the walkthrough to w.
func run(w io.Writer) error {
	study, err := core.New(7)
	if err != nil {
		return err
	}
	sp, err := attack.NewSpatial(study.Pop)
	if err != nil {
		return err
	}
	pools, err := mining.NewPoolSet(dataset.TableIV())
	if err != nil {
		return err
	}
	const attacker topology.ASN = 666

	// 1. Single-AS hijack: Figure 4's cheapest target vs its hardest.
	fmt.Fprintln(w, "== per-AS hijack cost (95% capture) ==")
	for _, victim := range core.Figure4ASes() {
		k, err := measure.PrefixesToIsolate(study.Pop, victim, 0.95)
		if err != nil {
			return err
		}
		row, _ := study.Pop.ASRow(victim)
		fmt.Fprintf(w, "AS%-6d %4d nodes: %3d of %4d prefixes\n", victim, row.Nodes, k, row.Prefixes)
	}

	// 2. Execute against Hetzner and verify capture on the route table.
	plan, err := sp.PlanAS(attacker, 24940, 0.95)
	if err != nil {
		return err
	}
	res, err := sp.Execute(plan, pools)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nhijacked AS24940 with %d announcements: %d nodes now route to AS%d\n",
		res.Announcements, res.CapturedNodes, attacker)
	sp.Withdraw()

	// 3. Organization-level amplification: Amazon owns several ASes.
	orgPlan, err := sp.PlanOrganization(attacker, "Amazon.com, Inc")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\norganization hijack of Amazon.com: %d ASes, %d prefixes, %d nodes\n",
		len(orgPlan.Targets), orgPlan.HijackCount, orgPlan.ExpectedNodes)

	// 4. Mining isolation (Table IV): three ASes carry 65.7% of hash rate.
	share := attack.MinerIsolation(pools, []topology.ASN{37963, 45102, 58563})
	fmt.Fprintf(w, "\nhijacking AS37963+AS45102+AS58563 isolates %.1f%% of hash rate\n", share*100)
	fmt.Fprintln(w, "with >50% of hash power isolated, the remaining network is exposed to a 51% attack")
	return nil
}
