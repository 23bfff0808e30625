// Package blockchain implements the ledger substrate underneath the network
// simulator: blocks, 64-bit linked hashes (the paper's simulated nodes each
// maintain "a 64-bit MD5 hash linked chain of values updated to its current
// fork" as an internal error check), a block tree with longest-chain fork
// choice, and reorg accounting that counts the transactions a partition
// reverses.
package blockchain

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"hash"
	"time"
)

// hashPut feeds b into h. hash.Hash.Write is documented never to return an
// error; funnelling writes through here keeps that contract explicit (and
// the checkederr lint clean) without if-err noise at every call site.
func hashPut(h hash.Hash, b []byte) { _, _ = h.Write(b) }

// Hash is the 64-bit truncated MD5 digest linking blocks, as used by the
// paper's simulator. 64 bits is ample for simulation-scale chains while
// keeping per-node state small.
type Hash uint64

// String renders the hash as fixed-width hex.
func (h Hash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// GenesisHash is the parent hash of the genesis block.
const GenesisHash Hash = 0

// TxID identifies a transaction.
type TxID uint64

// Block is one block in the simulated chain. Blocks are immutable once
// created; all linking is by hash.
type Block struct {
	Hash   Hash
	Parent Hash
	Height int
	Miner  int           // index of the miner/pool that produced it; -1 for genesis
	Time   time.Duration // virtual creation time
	Txs    []TxID        // transactions confirmed by this block
	// Counterfeit marks blocks produced by an attacker feeding an isolated
	// partition (§V-B). The flag is bookkeeping for the experiment harness;
	// honest nodes in the simulation cannot observe it.
	Counterfeit bool
}

// HashBlock computes the 64-bit linked hash of a block from its parent hash
// and contents, implementing the paper's MD5-linked integrity chain.
func HashBlock(parent Hash, height, miner int, t time.Duration, txs []TxID, counterfeit bool) Hash {
	var buf [8]byte
	h := md5.New()
	binary.BigEndian.PutUint64(buf[:], uint64(parent))
	hashPut(h, buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(height))
	hashPut(h, buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(int64(miner)))
	hashPut(h, buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(t))
	hashPut(h, buf[:])
	for _, tx := range txs {
		binary.BigEndian.PutUint64(buf[:], uint64(tx))
		hashPut(h, buf[:])
	}
	if counterfeit {
		hashPut(h, []byte{1})
	}
	sum := h.Sum(nil)
	return Hash(binary.BigEndian.Uint64(sum[:8]))
}

// NewBlock assembles and hashes a block extending parent.
func NewBlock(parent *Block, miner int, t time.Duration, txs []TxID, counterfeit bool) *Block {
	parentHash := GenesisHash
	height := 0
	if parent != nil {
		parentHash = parent.Hash
		height = parent.Height + 1
	}
	return &Block{
		Hash:        HashBlock(parentHash, height, miner, t, txs, counterfeit),
		Parent:      parentHash,
		Height:      height,
		Miner:       miner,
		Time:        t,
		Txs:         txs,
		Counterfeit: counterfeit,
	}
}

// Genesis returns the canonical genesis block shared by every node.
func Genesis() *Block {
	return &Block{
		Hash:   HashBlock(GenesisHash, 0, -1, 0, nil, false),
		Parent: GenesisHash,
		Height: 0,
		Miner:  -1,
	}
}
