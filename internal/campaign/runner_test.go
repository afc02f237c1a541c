package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netscatter/internal/serve"
	"netscatter/internal/sim"
)

// countingExec wraps an executor and records which cells actually ran
// — the probe the resume tests use to prove checkpointed cells are
// skipped, not re-executed.
type countingExec struct {
	inner Executor
	mu    sync.Mutex
	ran   []int
}

func (e *countingExec) RunCell(ctx context.Context, c Cell) (sim.Snapshot, error) {
	e.mu.Lock()
	e.ran = append(e.ran, c.Index)
	e.mu.Unlock()
	return e.inner.RunCell(ctx, c)
}

func (e *countingExec) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ran)
}

func runToBytes(t *testing.T, r *Runner) []byte {
	t.Helper()
	art, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	data, err := art.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestShardOrderIndependence pins the determinism contract: the same
// grid run at different worker counts — different cell-to-worker
// assignments, different completion orders — merges to byte-identical
// artifacts.
func TestShardOrderIndependence(t *testing.T) {
	spec := testSpec()
	want := runToBytes(t, &Runner{Spec: spec, Workers: 1})
	for _, workers := range []int{2, 4, 7} {
		got := runToBytes(t, &Runner{Spec: spec, Workers: workers})
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact at %d workers differs from serial run", workers)
		}
	}
}

// TestResumeByteIdentical kills a campaign mid-grid (simulated by
// truncating its checkpoint journal, including a torn trailing line —
// the on-disk signature of a kill during a write) and asserts the
// resumed run (a) re-executes only the missing cells and (b) merges to
// an artifact byte-identical to the uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()

	full := filepath.Join(dir, "full.ckpt")
	want := runToBytes(t, &Runner{Spec: spec, Workers: 3, CheckpointPath: full})

	// Keep the header plus the first 5 journaled cells, then a torn
	// entry — as if the process died mid-write on the sixth.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 7 {
		t.Fatalf("checkpoint has %d lines, want header + 16 cells", len(lines))
	}
	kept := 5
	truncated := append([]byte{}, bytes.Join(lines[:1+kept], nil)...)
	truncated = append(truncated, []byte(`{"index":9,"snap`)...)
	resumePath := filepath.Join(dir, "resume.ckpt")
	if err := os.WriteFile(resumePath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	exec := &countingExec{inner: LocalExecutor{}}
	got := runToBytes(t, &Runner{Spec: spec, Workers: 3, CheckpointPath: resumePath, Exec: exec})
	if !bytes.Equal(got, want) {
		t.Fatal("resumed artifact differs from uninterrupted run")
	}
	cells, _ := spec.Cells()
	if want := len(cells) - kept; exec.count() != want {
		t.Errorf("resume re-executed %d cells, want %d (grid %d, %d checkpointed)",
			exec.count(), want, len(cells), kept)
	}

	// A second resume over the now-complete journal runs nothing and
	// still reproduces the artifact.
	exec2 := &countingExec{inner: LocalExecutor{}}
	again := runToBytes(t, &Runner{Spec: spec, CheckpointPath: resumePath, Exec: exec2})
	if !bytes.Equal(again, want) {
		t.Fatal("re-merge over a complete checkpoint differs")
	}
	if exec2.count() != 0 {
		t.Errorf("complete checkpoint still re-executed %d cells", exec2.count())
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint written by a
// different spec must refuse to resume rather than merge unrelated
// results.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.ckpt")
	if _, err := (&Runner{Spec: testSpec(), CheckpointPath: path}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Devices = []int{2, 4}
	if _, err := (&Runner{Spec: other, CheckpointPath: path}).Run(context.Background()); err == nil {
		t.Fatal("resume against a foreign checkpoint succeeded")
	}
}

// TestResumeRejectsOtherSnapshotFormat: a journal of the same spec but
// another snapshot layout — here one written before the header carried
// a format, whose entries lack the per-AP and trajectory counters —
// must refuse to resume rather than merge zeroed counters.
func TestResumeRejectsOtherSnapshotFormat(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	for _, format := range []int{0, ckptFormat + 1} {
		h, err := json.Marshal(ckptHeader{Campaign: spec.Name, SpecSHA: spec.Digest(), Cells: len(cells), Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if format == 0 {
			// The old header shape: no format key at all.
			h = bytes.Replace(h, []byte(`,"format":0`), nil, 1)
		}
		journal := append(h, "\n{\"index\":0,\"snapshot\":{\"rounds\":2}}\n"...)
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = (&Runner{Spec: spec, CheckpointPath: path}).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "snapshot format") {
			t.Fatalf("format %d journal: resume error %v, want a snapshot-format refusal", format, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, journal) {
			t.Fatalf("format %d journal was modified by the refused resume", format)
		}
	}
}

// TestCancelKeepsCheckpoint: cancelling mid-run returns the context
// error but retains completed cells, and a plain rerun finishes the
// grid to the uninterrupted artifact.
func TestCancelKeepsCheckpoint(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	want := runToBytes(t, &Runner{Spec: spec})

	ctx, cancel := context.WithCancel(context.Background())
	// Progress runs on the runner's workers, possibly concurrently.
	var n atomic.Int64
	path := filepath.Join(dir, "cancel.ckpt")
	r := &Runner{Spec: spec, Workers: 2, CheckpointPath: path,
		Progress: func(done, total int, c Cell) {
			if n.Add(1) == 4 {
				cancel() // kill the campaign after a few cells land
			}
		}}
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("cancelled run returned no error")
	}

	got := runToBytes(t, &Runner{Spec: spec, Workers: 2, CheckpointPath: path})
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after cancel+resume differs from uninterrupted run")
	}
}

// TestRemoteMatchesLocal runs the same grid in-process and against a
// live netscatter-serve instance: the artifacts must be
// byte-identical, since a hosted tenant steps exactly the code the
// local executor runs.
func TestRemoteMatchesLocal(t *testing.T) {
	spec := testSpec()
	want := runToBytes(t, &Runner{Spec: spec})

	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	exec := &RemoteExecutor{Client: &serve.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}}
	got := runToBytes(t, &Runner{Spec: spec, Workers: 4, Exec: exec})
	if !bytes.Equal(got, want) {
		t.Fatal("remote (netscatter-serve) artifact differs from in-process run")
	}
}
