// Package cli holds the small amount of plumbing shared by the module's
// command-line tools. Its main job is making every failure path visible in
// the exit status: the mains print their results through an ErrWriter and
// check it before exiting, so a full disk or a closed pipe downstream turns
// into a non-zero exit instead of silently truncated output.
package cli

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
)

// ErrWriter wraps an io.Writer and remembers the first write error. Once a
// write fails, subsequent writes are suppressed (they would fail the same
// way) and Err reports the original failure. The zero value is not usable;
// use NewErrWriter.
type ErrWriter struct {
	w   io.Writer
	err error
}

// NewErrWriter wraps w. If w is already an *ErrWriter it is returned
// unchanged, so layered helpers share one error slot.
func NewErrWriter(w io.Writer) *ErrWriter {
	if ew, ok := w.(*ErrWriter); ok {
		return ew
	}
	return &ErrWriter{w: w}
}

// Write implements io.Writer.
func (ew *ErrWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// Err returns the first write error, or nil.
func (ew *ErrWriter) Err() error { return ew.err }

// StartCPUProfile writes a CPU profile of the rest of the process to path
// (read it with go tool pprof) and returns the function that stops the
// profile and closes the file. An empty path profiles nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
