package blockchain

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

// extend builds and adds a block on top of parent, failing the test on error.
func extend(t *testing.T, tree *Tree, parent *Block, miner int, txs ...TxID) (*Block, *Reorg) {
	t.Helper()
	b := NewBlock(parent, miner, time.Duration(len(tree.blocks))*time.Second, txs, false)
	r, err := tree.Add(b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	return b, r
}

// bestChain returns the best chain from genesis to the tip, inclusive.
func bestChain(tree *Tree) []*Block {
	chain := make([]*Block, tree.Height()+1)
	for h := range chain {
		chain[h], _ = tree.AtHeight(h)
	}
	return chain
}

func TestGenesisDeterministic(t *testing.T) {
	if Genesis().Hash != Genesis().Hash {
		t.Fatal("genesis hash not deterministic")
	}
	tree := NewTree()
	if tree.Height() != 0 || len(tree.blocks) != 1 {
		t.Fatalf("fresh tree: height=%d len=%d", tree.Height(), len(tree.blocks))
	}
}

func TestLinearGrowth(t *testing.T) {
	tree := NewTree()
	parent := Genesis()
	for i := 1; i <= 10; i++ {
		b, r := extend(t, tree, parent, 0)
		if tree.Tip().Hash != b.Hash {
			t.Fatalf("tip not updated at height %d", i)
		}
		if r == nil || len(r.Adopted) != 1 || len(r.Abandoned) != 0 {
			t.Fatalf("simple extension reorg = %+v", r)
		}
		parent = b
	}
	if tree.Height() != 10 {
		t.Fatalf("height = %d, want 10", tree.Height())
	}
	chain := bestChain(tree)
	if len(chain) != 11 {
		t.Fatalf("best chain length = %d, want 11", len(chain))
	}
	for i, b := range chain {
		if b.Height != i {
			t.Fatalf("chain[%d].Height = %d", i, b.Height)
		}
	}
}

func TestFirstSeenTieBreak(t *testing.T) {
	tree := NewTree()
	g := Genesis()
	a, _ := extend(t, tree, g, 1)
	// A competing block at the same height must not displace the tip.
	b := NewBlock(g, 2, time.Second, nil, false)
	r, err := tree.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatalf("same-height block caused reorg: %+v", r)
	}
	if tree.Tip().Hash != a.Hash {
		t.Error("tip switched on a same-height competitor (violates first-seen)")
	}
	if !tree.Has(a.Hash) || !tree.Has(b.Hash) {
		t.Error("same-height competitor not kept as a live fork")
	}
}

func TestReorgSwitchesBranch(t *testing.T) {
	tree := NewTree()
	g := Genesis()
	// Main branch: g -> a1 -> a2 with txs 1, 2.
	a1, _ := extend(t, tree, g, 0, TxID(1))
	a2, _ := extend(t, tree, a1, 0, TxID(2))
	// Attacker branch from genesis: b1, b2 (no reorg yet), then b3 overtakes.
	b1 := NewBlock(g, 9, 10*time.Second, []TxID{100}, true)
	if _, err := tree.Add(b1); err != nil {
		t.Fatal(err)
	}
	b2 := NewBlock(b1, 9, 11*time.Second, []TxID{2}, true) // re-confirms tx 2
	if _, err := tree.Add(b2); err != nil {
		t.Fatal(err)
	}
	if tree.Tip().Hash != a2.Hash {
		t.Fatal("tip moved before attacker branch was longer")
	}
	b3 := NewBlock(b2, 9, 12*time.Second, nil, true)
	r, err := tree.Add(b3)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("overtaking branch produced no reorg")
	}
	if len(r.Abandoned) != 2 {
		t.Errorf("reorg depth = %d, want 2", len(r.Abandoned))
	}
	if len(r.Adopted) != 3 {
		t.Errorf("adopted = %d, want 3", len(r.Adopted))
	}
	// tx 1 is reversed; tx 2 was re-confirmed on the new branch.
	reversed := r.ReversedTxs()
	if len(reversed) != 1 || reversed[0] != TxID(1) {
		t.Errorf("reversed = %v, want [1]", reversed)
	}
	// Ancestor-first ordering.
	if r.Abandoned[0].Hash != a1.Hash || r.Abandoned[1].Hash != a2.Hash {
		t.Error("abandoned not ancestor-first")
	}
	if r.Adopted[0].Hash != b1.Hash || r.Adopted[2].Hash != b3.Hash {
		t.Error("adopted not ancestor-first")
	}
}

func TestAddErrors(t *testing.T) {
	tree := NewTree()
	g := Genesis()
	a, _ := extend(t, tree, g, 0)

	t.Run("duplicate", func(t *testing.T) {
		dup := NewBlock(g, 0, a.Time, nil, false)
		if _, err := tree.Add(dup); !errors.Is(err, ErrDuplicate) {
			t.Errorf("err = %v, want ErrDuplicate", err)
		}
	})
	t.Run("orphan", func(t *testing.T) {
		fake := &Block{Hash: 12345, Parent: 99999, Height: 5}
		if _, err := tree.Add(fake); !errors.Is(err, ErrUnknownParent) {
			t.Errorf("err = %v, want ErrUnknownParent", err)
		}
	})
	t.Run("bad height", func(t *testing.T) {
		bad := &Block{Hash: 777, Parent: a.Hash, Height: 7}
		if _, err := tree.Add(bad); err == nil {
			t.Error("bad height accepted")
		}
	})
	t.Run("nil", func(t *testing.T) {
		if _, err := tree.Add(nil); err == nil {
			t.Error("nil block accepted")
		}
	})
}

func TestAtHeight(t *testing.T) {
	tree := NewTree()
	parent := Genesis()
	var blocks []*Block
	for i := 0; i < 5; i++ {
		parent, _ = extend(t, tree, parent, 0)
		blocks = append(blocks, parent)
	}
	for i, b := range blocks {
		got, ok := tree.AtHeight(i + 1)
		if !ok || got.Hash != b.Hash {
			t.Errorf("AtHeight(%d) = %v, %v", i+1, got, ok)
		}
	}
	if _, ok := tree.AtHeight(-1); ok {
		t.Error("AtHeight(-1) should fail")
	}
	if _, ok := tree.AtHeight(100); ok {
		t.Error("AtHeight beyond tip should fail")
	}
}

func TestValidateDetectsTampering(t *testing.T) {
	tree := NewTree()
	parent := Genesis()
	for i := 0; i < 5; i++ {
		parent, _ = extend(t, tree, parent, 0, TxID(i))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("valid tree failed validation: %v", err)
	}
	// Tamper with a stored block's contents: the MD5 link check must catch it.
	tree.blocks[parent.Hash].Txs = []TxID{999}
	if err := tree.Validate(); err == nil {
		t.Error("tampered block passed validation")
	}
}

func TestTreePropertyRandomForks(t *testing.T) {
	// Property: after any sequence of random valid insertions, (1) the tree
	// validates, (2) the tip is a maximal-height block, (3) the best chain links
	// hash-to-hash from genesis to tip.
	f := func(choices []uint8) bool {
		tree := NewTree()
		all := []*Block{Genesis()}
		for i, c := range choices {
			parent := all[int(c)%len(all)]
			b := NewBlock(parent, int(c)%5, time.Duration(i)*time.Second, []TxID{TxID(i)}, false)
			if _, err := tree.Add(b); err != nil {
				// Duplicate hashes can occur if the same parent/miner/time repeats;
				// that is a legal no-op for this property.
				if errors.Is(err, ErrDuplicate) {
					continue
				}
				return false
			}
			all = append(all, b)
		}
		if tree.Validate() != nil {
			return false
		}
		maxH := 0
		for _, b := range all {
			if tree.Has(b.Hash) && b.Height > maxH {
				maxH = b.Height
			}
		}
		if tree.Height() != maxH {
			return false
		}
		chain := bestChain(tree)
		for i := 1; i < len(chain); i++ {
			if chain[i].Parent != chain[i-1].Hash {
				return false
			}
		}
		return chain[len(chain)-1].Hash == tree.Tip().Hash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
