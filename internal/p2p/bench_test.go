package p2p

import (
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func benchNetwork(b *testing.B, n int, cfg Config) *Network {
	b.Helper()
	engine := &sim.Engine{}
	rng := stats.NewRand(1)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{Family: topology.FamilyIPv4})
	}
	net, err := NewNetwork(engine, nodes, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkBlockFlood measures one block's full propagation across a
// 200-node network, events included.
func BenchmarkBlockFlood(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := benchNetwork(b, 200, Config{FailureRate: 1e-9})
		blk := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
		b.StartTimer()
		if err := net.Publish(0, blk); err != nil {
			b.Fatal(err)
		}
		net.Engine.Run(time.Hour)
	}
}

// BenchmarkConnect measures peer-graph construction for a 2,000-node
// network.
func BenchmarkConnect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchNetwork(b, 2000, Config{})
	}
}

// BenchmarkConnectBiased measures locality-biased construction.
func BenchmarkConnectBiased(b *testing.B) {
	b.ReportAllocs()
	engine := &sim.Engine{}
	rng := stats.NewRand(1)
	nodes := make([]*Node, 2000)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{ASN: topology.ASN(i % 40)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewNetwork(engine, nodes, Config{SameASBias: 0.8}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateMining measures a mining hour on a 200-node network
// (the inner loop of every attack experiment).
func BenchmarkSteadyStateMining(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := benchNetwork(b, 200, Config{})
		parent := blockchain.Genesis()
		b.StartTimer()
		for h := 1; h <= 6; h++ {
			blk := blockchain.NewBlock(parent, 0, net.Engine.Now(), nil, false)
			if err := net.Publish(0, blk); err != nil {
				b.Fatal(err)
			}
			net.Engine.Run(net.Engine.Now() + 10*time.Minute)
			parent = blk
		}
	}
}
