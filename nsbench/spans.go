package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is the id of the enclosing span (-1
// for a root) and Round groups the spans of one round or request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int64  `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans into a fixed arena. begin reserves a slot with one
// atomic add, so pool workers record concurrently without locks; the
// arena is read only after the traced work has returned (the pool's join
// orders every worker's writes before it). reset starts a new round.
type tracer struct {
	epoch time.Time
	buf   []span
	n     atomic.Int32
	round int64
	lost  atomic.Int64 // spans dropped on a full arena

	kept     []span // spans retained for the span file
	keepLeft int    // rounds still to retain
}

func newTracer(capacity, keepRounds int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity), keepLeft: keepRounds}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 when the arena is full).
func (t *tracer) begin(name string, parent int32) int32 {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.buf) {
		t.lost.Add(1)
		return -1
	}
	t.buf[i] = span{ID: i, Parent: parent, Round: t.round, Name: name, Start: t.now()}
	return i
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.buf[id].End = t.now()
	}
}

// record stores an already-timed span (times relative to the epoch) and
// returns its id.
func (t *tracer) record(name string, parent int32, round int64, start, end time.Duration) int32 {
	id := t.begin(name, parent)
	if id >= 0 {
		t.buf[id].Round, t.buf[id].Start, t.buf[id].End = round, int64(start), int64(end)
	}
	return id
}

// keepAll retains every span in the arena for the span file.
func (t *tracer) keepAll() { t.kept = append(t.kept, t.spans()...) }

// spans returns the current round's spans.
func (t *tracer) spans() []span {
	n := int(t.n.Load())
	if n > len(t.buf) {
		n = len(t.buf)
	}
	return t.buf[:n]
}

// reset ends the current round: its spans are copied to the span file
// while rounds remain to keep, and the arena is cleared for round r.
func (t *tracer) reset(r int64) {
	if t.keepLeft > 0 && t.n.Load() > 0 {
		t.kept = append(t.kept, t.spans()...)
		t.keepLeft--
	}
	t.n.Store(0)
	t.round = r
}

// write stores the retained spans as NDJSON: a header object with the
// host record, then one span per line.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}

// interval is a half-open [lo, hi) time range.
type interval struct{ lo, hi int64 }

// coverage returns the total length of the union of ivs clipped to
// [lo, hi). Children recorded on different pool workers overlap; the
// union counts each instant once.
func coverage(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv.lo <= curHi {
			curHi = max(curHi, iv.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by the union of its children.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - coverage(children[s.ID], s.Start, s.End)
	}
	return self
}
