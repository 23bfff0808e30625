package iofault

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"sync"
	"syscall"

	"repro/internal/parallel"
)

// ChaosFS wraps the real filesystem with deterministic fault injection and
// crash simulation. Two independent capabilities share the seam:
//
//   - Injected faults (probabilistic or targeted): short writes, write and
//     sync errors, rename failures, ENOSPC, read corruption. Every decision
//     is drawn from a per-family SplitMix64 stream derived from Config.Seed,
//     in operation order — two runs issuing the same operation sequence see
//     the same faults. Injected errors wrap ErrInjected and model transient
//     media trouble: the filesystem keeps working.
//
//   - Crash simulation: every durability point (file write, fsync, rename,
//     directory sync) is counted, and Config.CrashAt names the point at
//     which the "machine loses power": the crashing operation takes the
//     partial effect a real crash leaves (a torn write prefix, a skipped
//     rename or fsync) and every later operation fails with ErrCrash.
//     ApplyCrash then finalizes the on-disk state: in the default
//     truncate-at-point model everything written before the crash survives;
//     with DropUnsynced the power-off model applies and file contents
//     beyond the last fsync are lost (metadata — creates, renames — is
//     treated as journaled and survives, the ext4-ordered behaviour that
//     makes "rename without fsync" the classic torn-result bug).
//
// The durability model tracks file sizes, not byte ranges: the layers
// behind the seam are append-only writers (journals, framed archives,
// temp-then-rename artifacts), so "which prefix survives" fully describes a
// crash. Operations are serialized under one mutex, which is also what
// makes operation numbering — and therefore fault placement — deterministic
// for a serialized workload.
type ChaosFS struct {
	cfg Config

	mu       sync.Mutex
	ops      int
	log      []Op
	crashed  bool
	injected int
	failOps  map[int]bool
	files    map[string]*track

	shortS, writeS, syncS, renameS, spaceS, readS, tearS parallel.Stream
}

// Config parameterizes a ChaosFS. The zero value injects nothing and never
// crashes — a pure recording passthrough.
type Config struct {
	// Seed derives every fault stream. Two ChaosFS with equal Config over
	// the same operation sequence inject identical faults.
	Seed int64

	// Per-operation fault probabilities, each drawn from its own stream.
	ShortWrite  float64 // a write persists only a prefix and errors
	WriteErr    float64 // a write fails outright (EIO-style), nothing persisted
	SyncErr     float64 // an fsync fails, durability not advanced
	RenameErr   float64 // a rename fails, destination untouched
	NoSpace     float64 // a write fails with ENOSPC, nothing persisted
	ReadCorrupt float64 // a read returns data with one flipped byte

	// FailOps injects one targeted transient write/sync/rename failure at
	// each listed operation sequence number (1-based), independent of the
	// probabilistic streams — the deterministic handle the re-admission
	// tests use.
	FailOps []int

	// CrashAt simulates a power failure at the given durability point
	// (1-based operation sequence number; 0 never crashes). While set, the
	// probabilistic faults above still apply up to the crash.
	CrashAt int

	// DropUnsynced selects the power-off durability model for ApplyCrash:
	// file bytes beyond the last fsync are lost. False keeps the
	// truncate-at-point model: everything physically written survives.
	DropUnsynced bool
}

// OpKind classifies a counted durability point.
type OpKind string

const (
	OpWrite   OpKind = "write"
	OpSync    OpKind = "sync"
	OpRename  OpKind = "rename"
	OpSyncDir OpKind = "syncdir"
)

// Op is one recorded durability point.
type Op struct {
	// Seq is the 1-based operation sequence number — the CrashAt key.
	Seq int
	// Kind is the operation class.
	Kind OpKind
	// Path is the operated path (the destination, for renames).
	Path string
	// Bytes is the write size (zero for sync/rename points).
	Bytes int
	// Injected names the fault injected at this point, empty for none.
	Injected string
}

// track is the durability model of one file: how many bytes exist and how
// many are fsynced (guaranteed to survive power loss).
type track struct {
	size   int64
	synced int64
}

// NewChaos builds a ChaosFS over the real filesystem.
//
//lint:ignore unusedexport test harness: the chaos proofs and durability tests drive ChaosFS through it
func NewChaos(cfg Config) *ChaosFS {
	c := &ChaosFS{
		cfg:     cfg,
		failOps: map[int]bool{},
		files:   map[string]*track{},
		shortS:  newStream(cfg.Seed, saltShort),
		writeS:  newStream(cfg.Seed, saltWrite),
		syncS:   newStream(cfg.Seed, saltSync),
		renameS: newStream(cfg.Seed, saltRename),
		spaceS:  newStream(cfg.Seed, saltSpace),
		readS:   newStream(cfg.Seed, saltRead),
		tearS:   newStream(cfg.Seed, saltTear),
	}
	for _, op := range cfg.FailOps {
		c.failOps[op] = true
	}
	return c
}

// Ops returns a copy of the recorded durability points, in order.
//
//lint:ignore unusedexport test harness: the chaos proofs and durability tests drive ChaosFS through it
func (c *ChaosFS) Ops() []Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Op(nil), c.log...)
}

// Points returns how many durability points have been counted.
//
//lint:ignore unusedexport test harness: the chaos proofs and durability tests drive ChaosFS through it
func (c *ChaosFS) Points() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// InjectedFaults returns how many faults have been injected.
//
//lint:ignore unusedexport test harness: the chaos proofs and durability tests drive ChaosFS through it
func (c *ChaosFS) InjectedFaults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// Crashed reports whether the simulated crash point has fired.
//
//lint:ignore unusedexport test harness: the chaos proofs and durability tests drive ChaosFS through it
func (c *ChaosFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// ApplyCrash finalizes the on-disk state after the crash point fired. Under
// the truncate-at-point model it is a no-op (the disk already holds exactly
// what was written before the crash). Under DropUnsynced it truncates every
// tracked file to its fsynced length — the bytes a power loss provably
// preserves. Call it before "rebooting" onto a fresh FS over the same
// directory.
//
//lint:ignore unusedexport test harness: the chaos proofs and durability tests drive ChaosFS through it
func (c *ChaosFS) ApplyCrash() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.DropUnsynced {
		return nil
	}
	paths := make([]string, 0, len(c.files))
	for p := range c.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		t := c.files[p]
		fi, err := os.Stat(p)
		if err != nil {
			continue // removed or never renamed into place
		}
		if fi.Size() > t.synced {
			if err := os.Truncate(p, t.synced); err != nil {
				return fmt.Errorf("iofault: apply crash to %s: %w", p, err)
			}
		}
	}
	return nil
}

// point counts one durability point under the lock and resolves what
// happens there: a crash, a targeted failure, or nothing. It appends the
// log record (whose Injected field the caller may have pre-set via inj).
func (c *ChaosFS) point(kind OpKind, path string, bytes int, inj string) (seq int, crash, fail bool) {
	c.ops++
	seq = c.ops
	if c.cfg.CrashAt != 0 && seq == c.cfg.CrashAt {
		crash = true
		c.crashed = true
		inj = "crash"
	} else if c.failOps[seq] {
		fail = true
		c.injected++
		inj = "failop"
	} else if inj != "" {
		c.injected++
	}
	c.log = append(c.log, Op{Seq: seq, Kind: kind, Path: path, Bytes: bytes, Injected: inj})
	return seq, crash, fail
}

// trackFor returns (creating if needed) the durability record for path.
func (c *ChaosFS) trackFor(path string, size int64) *track {
	t, ok := c.files[path]
	if !ok {
		t = &track{size: size, synced: size}
		c.files[path] = t
	}
	return t
}

func (c *ChaosFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, fmt.Errorf("%w: open %s", ErrCrash, path)
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		if flag&os.O_TRUNC != 0 {
			// Truncation is a metadata effect: durable immediately in the
			// model, and the content clock restarts at zero.
			c.files[path] = &track{}
		} else {
			fi, statErr := f.Stat()
			var size int64
			if statErr == nil {
				size = fi.Size()
			}
			c.trackFor(path, size)
		}
	}
	return &chaosFile{fs: c, path: path, f: f, writable: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

func (c *ChaosFS) Open(path string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, fmt.Errorf("%w: open %s", ErrCrash, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, path: path, f: f}, nil
}

func (c *ChaosFS) ReadFile(path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, fmt.Errorf("%w: read %s", ErrCrash, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c.maybeCorrupt(data)
	return data, nil
}

func (c *ChaosFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: rename %s", ErrCrash, newpath)
	}
	inj := ""
	if c.renameS.Bernoulli(c.cfg.RenameErr) {
		inj = "renameerr"
	}
	_, crash, fail := c.point(OpRename, newpath, 0, inj)
	if crash {
		// The rename never happened: the temp file stays, the destination
		// keeps (or lacks) its old content.
		return fmt.Errorf("%w: rename %s", ErrCrash, newpath)
	}
	if fail || inj != "" {
		return fmt.Errorf("%w: rename %s: device error", ErrInjected, newpath)
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if t, ok := c.files[oldpath]; ok {
		c.files[newpath] = t
		delete(c.files, oldpath)
	}
	return nil
}

func (c *ChaosFS) Remove(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: remove %s", ErrCrash, path)
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	delete(c.files, path)
	return nil
}

func (c *ChaosFS) ReadDir(path string) ([]fs.DirEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, fmt.Errorf("%w: readdir %s", ErrCrash, path)
	}
	return os.ReadDir(path)
}

func (c *ChaosFS) Stat(path string) (fs.FileInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, fmt.Errorf("%w: stat %s", ErrCrash, path)
	}
	return os.Stat(path)
}

func (c *ChaosFS) MkdirAll(path string, perm os.FileMode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: mkdir %s", ErrCrash, path)
	}
	return os.MkdirAll(path, perm)
}

func (c *ChaosFS) SyncDir(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: syncdir %s", ErrCrash, path)
	}
	inj := ""
	if c.syncS.Bernoulli(c.cfg.SyncErr) {
		inj = "syncerr"
	}
	_, crash, fail := c.point(OpSyncDir, path, 0, inj)
	if crash {
		// The directory sync never happened; in the model metadata is
		// journaled anyway, so there is nothing to roll back.
		return fmt.Errorf("%w: syncdir %s", ErrCrash, path)
	}
	if fail || inj != "" {
		return fmt.Errorf("%w: syncdir %s: device error", ErrInjected, path)
	}
	return OSFS{}.SyncDir(path)
}

// maybeCorrupt flips one byte of data when the read-corruption stream
// fires. Callers hold the lock.
func (c *ChaosFS) maybeCorrupt(data []byte) {
	if len(data) == 0 || !c.readS.Bernoulli(c.cfg.ReadCorrupt) {
		return
	}
	c.injected++
	pos := int(c.readS.Next() % uint64(len(data)))
	data[pos] ^= 0x40
}

// chaosFile is the fault-injecting handle.
type chaosFile struct {
	fs       *ChaosFS
	path     string
	f        *os.File
	writable bool
}

func (cf *chaosFile) Read(p []byte) (int, error) {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, fmt.Errorf("%w: read %s", ErrCrash, cf.path)
	}
	n, err := cf.f.Read(p)
	if n > 0 {
		c.maybeCorrupt(p[:n])
	}
	return n, err
}

func (cf *chaosFile) Write(p []byte) (int, error) {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, fmt.Errorf("%w: write %s", ErrCrash, cf.path)
	}
	inj := ""
	switch {
	case c.writeS.Bernoulli(c.cfg.WriteErr):
		inj = "writeerr"
	case c.spaceS.Bernoulli(c.cfg.NoSpace):
		inj = "enospc"
	case c.shortS.Bernoulli(c.cfg.ShortWrite):
		inj = "shortwrite"
	}
	_, crash, fail := c.point(OpWrite, cf.path, len(p), inj)
	t := c.trackFor(cf.path, 0)
	if crash {
		// The torn write: a seeded prefix of p reaches the platter, the
		// rest never does.
		torn := int(c.tearS.Next() % uint64(len(p)+1))
		if torn > 0 {
			if n, err := cf.f.Write(p[:torn]); err != nil {
				torn = n
			}
			t.size += int64(torn)
		}
		return torn, fmt.Errorf("%w: write %s", ErrCrash, cf.path)
	}
	if fail {
		return 0, fmt.Errorf("%w: write %s: device error", ErrInjected, cf.path)
	}
	switch inj {
	case "writeerr":
		return 0, fmt.Errorf("%w: write %s: device error", ErrInjected, cf.path)
	case "enospc":
		return 0, fmt.Errorf("%w: write %s: %w", ErrInjected, cf.path, syscall.ENOSPC)
	case "shortwrite":
		short := len(p) / 2
		n, err := cf.f.Write(p[:short])
		if err != nil {
			return n, err
		}
		t.size += int64(n)
		return n, fmt.Errorf("%w: write %s: %w", ErrInjected, cf.path, io.ErrShortWrite)
	}
	n, err := cf.f.Write(p)
	t.size += int64(n)
	return n, err
}

func (cf *chaosFile) Sync() error {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: sync %s", ErrCrash, cf.path)
	}
	inj := ""
	if c.syncS.Bernoulli(c.cfg.SyncErr) {
		inj = "syncerr"
	}
	_, crash, fail := c.point(OpSync, cf.path, 0, inj)
	if crash {
		// Power was lost before the flush: durability does not advance.
		return fmt.Errorf("%w: sync %s", ErrCrash, cf.path)
	}
	if fail || inj != "" {
		return fmt.Errorf("%w: sync %s: device error", ErrInjected, cf.path)
	}
	if err := cf.f.Sync(); err != nil {
		return err
	}
	t := c.trackFor(cf.path, 0)
	t.synced = t.size
	return nil
}

func (cf *chaosFile) Truncate(size int64) error {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: truncate %s", ErrCrash, cf.path)
	}
	if err := cf.f.Truncate(size); err != nil {
		return err
	}
	t := c.trackFor(cf.path, 0)
	t.size = size
	if t.synced > size {
		t.synced = size
	}
	return nil
}

func (cf *chaosFile) Seek(offset int64, whence int) (int64, error) {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, fmt.Errorf("%w: seek %s", ErrCrash, cf.path)
	}
	return cf.f.Seek(offset, whence)
}

func (cf *chaosFile) Close() error {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	// Always release the descriptor — the crash model is about the platter,
	// not the process's fd table.
	err := cf.f.Close()
	if c.crashed {
		return fmt.Errorf("%w: close %s", ErrCrash, cf.path)
	}
	return err
}

// Stream salts, one per fault family.
const (
	saltShort = iota + 0x10FA
	saltWrite
	saltSync
	saltRename
	saltSpace
	saltRead
	saltTear
)

// newStream is the fault family's stream: one per family keeps decisions
// independent.
func newStream(seed int64, salt int) parallel.Stream {
	return parallel.NewStream(parallel.DeriveSeed(seed, salt))
}
