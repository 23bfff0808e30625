package crawler

import (
	"fmt"
	"os"

	"repro/internal/iofault"
)

// File-level entry points for the hardened snapshot archive, routed through
// the iofault seam (DESIGN.md §15) so the chaos harness can exercise the
// same code the CLI ships: torn writes on the way out, corrupt bytes on the
// way back in — both ending in the valid-prefix recovery the streaming
// functions already guarantee.

// WriteFramedFile writes snapshots to path in the crawl.v1 format and
// fsyncs before closing: an archive is a dataset artifact, and "the command
// exited 0" must mean the bytes reached the platter. A nil fsys writes to
// the real filesystem.
func WriteFramedFile(fsys iofault.FS, path string, snaps []Snapshot) error {
	f, err := iofault.OrOS(fsys).OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("crawler: create archive: %w", err)
	}
	err = WriteFramed(f, snaps)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("crawler: write archive %s: %w", path, err)
	}
	return nil
}

// ReadFramedFile loads a crawl.v1 archive from path with the same recovery
// contract as ReadFramed: damaged tails truncate, damaged headers are typed
// errors, and nothing silently misparses. A nil fsys reads the real
// filesystem.
//
//lint:ignore unusedexport decodes WriteFramedFile output for the framed-file round-trip and corruption tests
func ReadFramedFile(fsys iofault.FS, path string) (snaps []Snapshot, truncated bool, err error) {
	f, err := iofault.OrOS(fsys).Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("crawler: open archive: %w", err)
	}
	//lint:ignore checkederr read-only handle; Close after reads reports no data-loss error
	defer f.Close()
	return ReadFramed(f)
}
