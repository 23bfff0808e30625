// Package p2p implements the simulated Bitcoin peer-to-peer layer: full
// nodes with the default eight outbound peer connections, the
// inv/getdata/block message exchange, and diffusion spreading — each relay
// hop delayed by an independent exponential, the propagation model Bitcoin
// adopted in 2015 and the one the paper's temporal analysis assumes (§V-B,
// citing Fanti & Viswanath). Links can fail probabilistically and can be
// filtered by an attacker-controlled policy, which is how the network
// simulator expresses eclipses and BGP partitions.
package p2p

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockchain"
	"repro/internal/topology"
)

// NodeID indexes a node within its network.
type NodeID int

// MsgType enumerates the subset of the Bitcoin wire protocol the simulation
// exchanges. (Bitnodes drives the same messages against the real network to
// read each node's chain view, §IV-A.)
type MsgType int

// Message types.
const (
	MsgInvalid MsgType = iota
	// MsgInv announces knowledge of a block by hash.
	MsgInv
	// MsgGetData requests the full block for a hash.
	MsgGetData
	// MsgBlock delivers a full block.
	MsgBlock
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case MsgInv:
		return "inv"
	case MsgGetData:
		return "getdata"
	case MsgBlock:
		return "block"
	default:
		return fmt.Sprintf("MsgType(%d)", int(m))
	}
}

// Message is one wire message between simulated nodes. Block deliveries
// carry no payload pointer: chain trees are append-only, so the receiver
// re-resolves the block from the sender's tree at arrival time.
type Message struct {
	Type MsgType
	From NodeID
	To   NodeID
	Hash blockchain.Hash
	Idx  int32 // the network's interned index for Hash
}

// Profile carries the per-node attributes the paper's dataset records
// (Table I): address, family, hosting AS/organization, link speed and the
// latency/uptime indices Bitnodes derives from response times.
type Profile struct {
	Addr         topology.IP
	Family       topology.AddrFamily
	ASN          topology.ASN
	Org          string
	LinkSpeedMbs float64
	LatencyIndex float64 // 0 (worst) .. 1 (best)
	UptimeIndex  float64 // 0 (worst) .. 1 (best)
	Version      string  // software client version (Table VIII)
}

// Node is one simulated full node: a chain view plus peer links.
type Node struct {
	ID      NodeID
	Profile Profile
	Tree    *blockchain.Tree

	// Peers are outbound connections (default 8 in Bitcoin and in the
	// paper's simulation).
	Peers []NodeID

	// Up mirrors the dataset's up/down flag; down nodes neither relay nor
	// accept blocks.
	Up bool

	// reqAt tracks when each block was last requested via getdata — to
	// avoid duplicate downloads while still allowing a re-request after a
	// timeout (a lost getdata or block reply would otherwise strand the
	// node — Bitcoin's block-download timeout serves the same purpose).
	// It is indexed by the network's interned hash index rather than keyed
	// by hash: the inv-dedup check on the relay hot path becomes a slice
	// load instead of a map probe (DESIGN.md §12). -1 means never
	// requested; the slice grows lazily as the network interns new hashes.
	reqAt []time.Duration
	// orphans holds blocks whose parent has not arrived yet, keyed by the
	// missing parent hash — the classic orphan-block pool. Without it a
	// node that hears about a child before its parent would lose the block
	// forever.
	orphans map[blockchain.Hash][]*blockchain.Block
	// orphanByHash indexes the same blocks by their own hash, so recovery
	// can walk an orphan chain back to its deepest missing ancestor.
	orphanByHash map[blockchain.Hash]*blockchain.Block
	// have is a bitset over the network's interned hash indexes marking
	// blocks this node has accepted. It fronts Tree.Has on the inv-dedup
	// hot path: a set bit proves presence with one word load, a clear bit
	// falls through to the authoritative tree lookup (blocks can enter a
	// tree without passing the relay, so clear is never proof of absence).
	have []uint64
	// LastBlockAt is the virtual time this node last advanced its tip,
	// feeding the BlockAware countermeasure (tc - tl > 600s check).
	LastBlockAt time.Duration
	// ReorgCount and ReversedTxs accumulate partition damage for reporting.
	ReorgCount  int
	ReversedTxs int
}

// NewNode creates an up node with its own genesis-rooted chain view.
func NewNode(id NodeID, profile Profile) *Node {
	return &Node{
		ID:           id,
		Profile:      profile,
		Tree:         blockchain.NewTree(),
		Up:           true,
		orphans:      map[blockchain.Hash][]*blockchain.Block{},
		orphanByHash: map[blockchain.Hash]*blockchain.Block{},
	}
}

// AddOrphan stashes a block waiting for the given parent.
func (n *Node) AddOrphan(parent blockchain.Hash, b *blockchain.Block) {
	for _, o := range n.orphans[parent] {
		if o.Hash == b.Hash {
			return
		}
	}
	n.orphans[parent] = append(n.orphans[parent], b)
	n.orphanByHash[b.Hash] = b
}

// TakeOrphans removes and returns the blocks waiting on the given parent.
func (n *Node) TakeOrphans(parent blockchain.Hash) []*blockchain.Block {
	bs := n.orphans[parent]
	delete(n.orphans, parent)
	for _, b := range bs {
		delete(n.orphanByHash, b.Hash)
	}
	return bs
}

// OrphanWithHash returns the stashed orphan with the given block hash.
func (n *Node) OrphanWithHash(h blockchain.Hash) (*blockchain.Block, bool) {
	b, ok := n.orphanByHash[h]
	return b, ok
}

// Height returns the node's best-chain height.
func (n *Node) Height() int { return n.Tree.Height() }

// BlocksBehind returns how far the node's view lags a reference height,
// never negative. This is the paper's central per-node lag metric (Figures
// 1 and 6; Table V).
func (n *Node) BlocksBehind(refHeight int) int {
	d := refHeight - n.Height()
	if d < 0 {
		return 0
	}
	return d
}

// markRequested records an outstanding getdata at virtual time now and
// reports whether a sufficiently recent request (within timeout) is already
// in flight, in which case the caller should suppress the duplicate. idx is
// the network's interned index for the block hash; every request-marking
// path interns, so the dedup semantics are exactly those of the former
// hash-keyed map.
func (n *Node) markRequested(idx int32, now, timeout time.Duration) bool {
	if int(idx) >= len(n.reqAt) {
		old := len(n.reqAt)
		n.reqAt = append(n.reqAt, make([]time.Duration, int(idx)+1-old)...)
		for i := old; i < len(n.reqAt); i++ {
			n.reqAt[i] = -1
		}
	}
	if at := n.reqAt[idx]; at >= 0 && now-at < timeout {
		return true
	}
	n.reqAt[idx] = now
	return false
}

// setHave marks an interned hash index as accepted.
func (n *Node) setHave(idx int32) {
	w := int(idx >> 6)
	if w >= len(n.have) {
		n.have = append(n.have, make([]uint64, w+1-len(n.have))...)
	}
	n.have[w] |= 1 << (uint(idx) & 63)
}

// hasIdx reports whether the interned hash index is marked accepted.
//
//hot:path
func (n *Node) hasIdx(idx int32) bool {
	w := int(uint32(idx) >> 6)
	return w < len(n.have) && n.have[w]&(1<<(uint(idx)&63)) != 0
}

// AcceptBlock adds a block to the node's view, updating lag bookkeeping and
// reorg damage counters. The bool reports whether the block was new; a
// duplicate is not an error.
func (n *Node) AcceptBlock(b *blockchain.Block, now time.Duration) (bool, error) {
	reorg, err := n.Tree.Add(b)
	if err != nil {
		if errors.Is(err, blockchain.ErrDuplicate) {
			return false, nil
		}
		return false, err
	}
	if reorg != nil {
		if len(reorg.Abandoned) > 0 {
			n.ReorgCount++
			n.ReversedTxs += len(reorg.ReversedTxs())
		}
		n.LastBlockAt = now
	}
	return true, nil
}
