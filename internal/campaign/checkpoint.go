package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"netscatter/internal/sim"
)

// The checkpoint is an append-only NDJSON journal: a header line
// binding the file to one spec (name, digest, cell count) and to the
// snapshot layout its entries use, then one line per completed cell.
// Appends are flushed and synced per cell, so a killed campaign loses
// at most the cell that was mid-write — and a torn final line is
// detected and truncated away on reopen, restoring the append
// invariant before any new cell lands.

// ckptFormat names the sim.Snapshot layout journal entries carry. Bump
// it whenever Snapshot gains or changes a counter: an entry of an older
// layout decodes with the new counters at zero, and resuming from it
// would merge those zeros into the artifact. Journals without a format
// field predate the per-AP and trajectory counters (format 0).
const ckptFormat = 1

// ckptHeader is the journal's first line.
type ckptHeader struct {
	Campaign string `json:"campaign"`
	SpecSHA  string `json:"spec_sha256"`
	Cells    int    `json:"cells"`
	Format   int    `json:"format"`
}

// ckptEntry is one completed cell.
type ckptEntry struct {
	Index    int          `json:"index"`
	Snapshot sim.Snapshot `json:"snapshot"`
}

// checkpoint is an open journal positioned for appends.
type checkpoint struct {
	f *os.File
}

// openCheckpoint opens (or creates) the journal at path for a run of
// spec over nCells cells, returning the already-completed cells. A
// header from a different spec is an error; a torn trailing line — the
// kill signature — is dropped and truncated away.
func openCheckpoint(path string, spec *Spec, nCells int) (*checkpoint, map[int]sim.Snapshot, error) {
	done := make(map[int]sim.Snapshot)
	digest := spec.Digest()

	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		ck := &checkpoint{f: f}
		if err := ck.writeLine(ckptHeader{Campaign: spec.Name, SpecSHA: digest, Cells: nCells, Format: ckptFormat}); err != nil {
			f.Close()
			return nil, nil, err
		}
		return ck, done, nil
	case err != nil:
		return nil, nil, err
	}

	// Walk the journal, tracking the offset after the last fully valid
	// line so a torn tail can be truncated away.
	valid := 0
	first := true
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final line: no newline made it to disk
		}
		line := data[off : off+nl]
		if first {
			var h ckptHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, nil, fmt.Errorf("campaign: checkpoint %s: malformed header: %w", path, err)
			}
			if h.SpecSHA != digest {
				return nil, nil, fmt.Errorf("campaign: checkpoint %s was written by a different spec (campaign %q, %d cells); refusing to resume", path, h.Campaign, h.Cells)
			}
			if h.Format != ckptFormat {
				return nil, nil, fmt.Errorf("campaign: checkpoint %s holds snapshot format %d, this build writes format %d; refusing to resume (delete it to rerun the campaign)", path, h.Format, ckptFormat)
			}
			first = false
		} else {
			var e ckptEntry
			if err := json.Unmarshal(line, &e); err != nil || e.Index < 0 || e.Index >= nCells {
				break // torn or corrupt entry: drop it and everything after
			}
			done[e.Index] = e.Snapshot
		}
		off += nl + 1
		valid = off
	}
	if first {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s has no valid header", path)
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &checkpoint{f: f}, done, nil
}

// record journals one completed cell, durably.
func (ck *checkpoint) record(index int, snap sim.Snapshot) error {
	if err := ck.writeLine(ckptEntry{Index: index, Snapshot: snap}); err != nil {
		return err
	}
	return ck.f.Sync()
}

func (ck *checkpoint) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = ck.f.Write(append(line, '\n'))
	return err
}

func (ck *checkpoint) close() error { return ck.f.Close() }
