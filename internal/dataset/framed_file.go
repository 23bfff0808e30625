package dataset

import (
	"fmt"
	"os"

	"repro/internal/iofault"
)

// File-level entry points for the hardened trace archive, routed through
// the iofault seam (DESIGN.md §15) — the dataset-side mirror of
// crawler.WriteFramedFile/ReadFramedFile.

// WriteFramedTraceFile writes a trace to path in the trace.v1 format and
// fsyncs before closing, so a clean exit means a durable archive. A nil
// fsys writes to the real filesystem.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 3)
func WriteFramedTraceFile(fsys iofault.FS, path string, t *Trace) error {
	f, err := iofault.OrOS(fsys).OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("dataset: create trace archive: %w", err)
	}
	err = WriteFramedTrace(f, t)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dataset: write trace archive %s: %w", path, err)
	}
	return nil
}

// ReadFramedTraceFile loads a trace.v1 archive from path with ReadFramedTrace's
// recovery contract. A nil fsys reads the real filesystem.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 3)
func ReadFramedTraceFile(fsys iofault.FS, path string) (t *Trace, truncated bool, err error) {
	f, err := iofault.OrOS(fsys).Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("dataset: open trace archive: %w", err)
	}
	//lint:ignore checkederr read-only handle; Close after reads reports no data-loss error
	defer f.Close()
	return ReadFramedTrace(f)
}
