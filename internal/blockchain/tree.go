package blockchain

import (
	"errors"
	"fmt"
)

// Common errors returned by Tree operations.
var (
	ErrUnknownParent = errors.New("blockchain: unknown parent")
	ErrDuplicate     = errors.New("blockchain: duplicate block")
	ErrUnknownBlock  = errors.New("blockchain: unknown block")
)

// Reorg describes a tip switch: the blocks abandoned from the old best chain
// and the blocks adopted from the new one. The paper's implications section
// (§V-B) measures exactly this: when a partition heals, the counterfeit
// branch is rejected and every transaction in its blocks is reversed.
type Reorg struct {
	Abandoned []*Block // old-branch blocks, ancestor-first
	Adopted   []*Block // new-branch blocks, ancestor-first
}

// ReversedTxs returns all transactions confirmed in abandoned blocks but not
// re-confirmed in adopted ones — the transactions a user would see vanish.
func (r Reorg) ReversedTxs() []TxID {
	adopted := make(map[TxID]bool)
	for _, b := range r.Adopted {
		for _, tx := range b.Txs {
			adopted[tx] = true
		}
	}
	var reversed []TxID
	for _, b := range r.Abandoned {
		for _, tx := range b.Txs {
			if !adopted[tx] {
				reversed = append(reversed, tx)
			}
		}
	}
	return reversed
}

// Tree is a block tree with longest-chain fork choice. Each simulated node
// owns one Tree representing its local view of the blockchain; the crawler
// compares tree tips across nodes to measure consensus lag.
//
// Ties on height are broken in favour of the earlier-seen block, matching
// Bitcoin's first-seen rule.
type Tree struct {
	blocks  map[Hash]*Block
	tip     *Block
	genesis *Block
	// extend is the reused result for the common tip-extension case of Add
	// (see Add's contract on result lifetime).
	extend      Reorg
	extendedBuf [1]*Block
}

// NewTree creates a tree rooted at the shared genesis block.
func NewTree() *Tree {
	g := Genesis()
	t := &Tree{
		blocks:  map[Hash]*Block{g.Hash: g},
		tip:     g,
		genesis: g,
	}
	return t
}

// Tip returns the current best block.
func (t *Tree) Tip() *Block { return t.tip }

// Height returns the height of the best chain.
func (t *Tree) Height() int { return t.tip.Height }

// Get returns the block for a hash, if known.
func (t *Tree) Get(h Hash) (*Block, bool) {
	b, ok := t.blocks[h]
	return b, ok
}

// Has reports whether the tree contains the block hash.
func (t *Tree) Has(h Hash) bool {
	_, ok := t.blocks[h]
	return ok
}

// Add inserts a block whose parent is already known. It returns a non-nil
// *Reorg when the insertion changed the best tip to a different branch
// (the reorg is empty-adopted-only when the new block simply extends the
// tip). Duplicate and orphan insertions return ErrDuplicate and
// ErrUnknownParent respectively.
//
// The returned *Reorg is valid until the next Add on the same tree: the
// plain tip-extension case — the overwhelming majority under normal
// propagation — reuses a per-tree value so accepting a block allocates
// nothing. Callers that need to retain one (none in this repository do)
// must copy it.
func (t *Tree) Add(b *Block) (*Reorg, error) {
	if b == nil {
		return nil, errors.New("blockchain: nil block")
	}
	if _, ok := t.blocks[b.Hash]; ok {
		return nil, fmt.Errorf("%w: %v", ErrDuplicate, b.Hash)
	}
	parent, ok := t.blocks[b.Parent]
	if !ok {
		return nil, fmt.Errorf("%w: block %v wants parent %v", ErrUnknownParent, b.Hash, b.Parent)
	}
	if b.Height != parent.Height+1 {
		return nil, fmt.Errorf("blockchain: block %v has height %d, parent height %d", b.Hash, b.Height, parent.Height)
	}
	t.blocks[b.Hash] = b

	// Longest chain with first-seen tie-break: only a strictly higher block
	// displaces the tip.
	if b.Height <= t.tip.Height {
		return nil, nil
	}
	old := t.tip
	t.tip = b
	if b.Parent == old.Hash {
		t.extendedBuf[0] = b
		t.extend = Reorg{Adopted: t.extendedBuf[:1]}
		return &t.extend, nil
	}
	reorg := t.reorgPath(old, b)
	return reorg, nil
}

// reorgPath computes abandoned/adopted block lists between the old and new
// tips via their lowest common ancestor.
func (t *Tree) reorgPath(oldTip, newTip *Block) *Reorg {
	a, b := oldTip, newTip
	var abandoned, adopted []*Block
	for a.Height > b.Height {
		abandoned = append(abandoned, a)
		a = t.blocks[a.Parent]
	}
	for b.Height > a.Height {
		adopted = append(adopted, b)
		b = t.blocks[b.Parent]
	}
	for a.Hash != b.Hash {
		abandoned = append(abandoned, a)
		adopted = append(adopted, b)
		a = t.blocks[a.Parent]
		b = t.blocks[b.Parent]
	}
	reverse(abandoned)
	reverse(adopted)
	return &Reorg{Abandoned: abandoned, Adopted: adopted}
}

func reverse(bs []*Block) {
	for i, j := 0, len(bs)-1; i < j; i, j = i+1, j-1 {
		bs[i], bs[j] = bs[j], bs[i]
	}
}

// AtHeight returns the best-chain block at the given height, if the height
// is within the best chain.
func (t *Tree) AtHeight(h int) (*Block, bool) {
	if h < 0 || h > t.tip.Height {
		return nil, false
	}
	b := t.tip
	for b.Height > h {
		b = t.blocks[b.Parent]
	}
	return b, true
}

// Validate walks the whole tree checking hash links, heights, and that the
// recomputed 64-bit MD5 link of every block matches its stored hash — the
// paper's per-node internal error check. It is invoked by property tests
// and by the simulator's self-check mode.
//
//lint:ignore unusedexport invariant checker the tree property tests assert after random fork sequences
func (t *Tree) Validate() error {
	for h, b := range t.blocks {
		if b.Hash != h {
			return fmt.Errorf("blockchain: key %v stores block with hash %v", h, b.Hash)
		}
		want := HashBlock(b.Parent, b.Height, b.Miner, b.Time, b.Txs, b.Counterfeit)
		if want != b.Hash {
			return fmt.Errorf("blockchain: block %v fails hash recomputation", h)
		}
		if b.Hash == t.genesis.Hash {
			continue
		}
		parent, ok := t.blocks[b.Parent]
		if !ok {
			return fmt.Errorf("blockchain: block %v has unknown parent %v", h, b.Parent)
		}
		if b.Height != parent.Height+1 {
			return fmt.Errorf("blockchain: block %v height %d, parent height %d", h, b.Height, parent.Height)
		}
	}
	if _, ok := t.blocks[t.tip.Hash]; !ok {
		return errors.New("blockchain: tip not in tree")
	}
	return nil
}
