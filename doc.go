// Package repro is a from-scratch Go reproduction of "Partitioning Attacks
// on Bitcoin: Colliding Space, Time, and Logic" (Saad, Cook, Nguyen, Thai,
// Mohaisen — IEEE ICDCS 2019).
//
// The library lives under internal/: a discrete-event Bitcoin network
// simulator (sim, p2p, blockchain, mining, netsim), an Internet topology and
// BGP substrate (topology), the paper's grid fork simulator (gridsim), a
// calibrated synthetic stand-in for the paper's Bitnodes crawl (dataset),
// the analyses (measure, stats), the four partitioning attacks and
// the timing theory (attack, vulndb), the §VI countermeasures (defense), and
// the experiment orchestration that regenerates every table and figure
// (core).
//
// Entry points: cmd/partition (experiments, attacks, defenses), the
// cmd/partitiond experiment service, the cmd/repolint lint audit, and two
// walkthroughs under examples/ (spatialhijack, spatiotemporal) that run
// what no verb does. The root-level benchmarks (bench_test.go) regenerate
// each table and figure and exercise the ablations called out in DESIGN.md.
package repro
