package blockchain

import (
	"testing"
	"time"
)

func BenchmarkHashBlock(b *testing.B) {
	txs := []TxID{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HashBlock(Hash(i), i, 0, time.Duration(i), txs, false)
	}
}

func BenchmarkTreeLinearAdd(b *testing.B) {
	b.ReportAllocs()
	tree := NewTree()
	parent := Genesis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := NewBlock(parent, 0, time.Duration(i), nil, false)
		if _, err := tree.Add(blk); err != nil {
			b.Fatal(err)
		}
		parent = blk
	}
}

func BenchmarkTreeReorg(b *testing.B) {
	// Repeatedly build a depth-6 fork and switch to it.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := NewTree()
		parent := Genesis()
		for h := 0; h < 6; h++ {
			blk := NewBlock(parent, 0, time.Duration(h), []TxID{TxID(h)}, false)
			if _, err := tree.Add(blk); err != nil {
				b.Fatal(err)
			}
			parent = blk
		}
		side := Genesis()
		blocks := make([]*Block, 0, 7)
		for h := 0; h < 7; h++ {
			blk := NewBlock(side, 1, time.Duration(100+h), []TxID{TxID(100 + h)}, false)
			blocks = append(blocks, blk)
			side = blk
		}
		b.StartTimer()
		for _, blk := range blocks {
			if _, err := tree.Add(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
}
