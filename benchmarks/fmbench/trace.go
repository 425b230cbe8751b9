package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/fabric"
)

// Spans are recorded only from this package, around the calls into each
// layer: the worker loop brackets an op, tracedTransport brackets each
// fabric round trip, tracedStore brackets each server-side store call. A
// traced run has one worker and the transport has one request in flight, so
// "the span currently open one level up" is the unique cause of a new span.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanFetch
	spanPush
	spanDelete
	spanGet
	spanPut
	spanStoreDelete
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "transport.fetch", "transport.push", "transport.delete",
	"store.get", "store.put", "store.delete",
}

// layer maps a span kind to the module whose time it brackets: an op span
// is the whole client stack (farmem/core/aifm/ctier/bufpool), a transport
// span is fabric on both ends of the socket, a store span is remote.
type layer uint8

const (
	layerClient layer = iota
	layerFabric
	layerRemote
	numLayers
)

func (k spanKind) layer() layer {
	switch {
	case k == spanOp:
		return layerClient
	case k <= spanDelete:
		return layerFabric
	default:
		return layerRemote
	}
}

type span struct {
	parent     int32 // index of the causing span, -1 when none was open
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
}

// tracer is the in-memory span buffer plus the byte and call counts taken
// at the same boundaries. The buffer is preallocated; spans past its
// capacity are counted as dropped, never allocated mid-run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped uint64

	curOp, curTransport atomic.Int32 // open span one level up, -1 when none

	calls                     [numSpanKinds]atomic.Uint64
	bytesFetched, bytesPushed atomic.Uint64
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
	t.curOp.Store(-1)
	t.curTransport.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when the buffer is full.
func (t *tracer) begin(kind spanKind, parent int32, start int64) int32 {
	t.calls[kind].Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{parent: parent, kind: kind, start: start})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(idx int32, end int64) {
	if idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].end = end
	t.mu.Unlock()
}

// beginOp and endOp bracket one workload op with timestamps the worker
// loop already took for its latency sample.
func (t *tracer) beginOp(start time.Time) int32 {
	idx := t.begin(spanOp, -1, int64(start.Sub(t.epoch)))
	t.curOp.Store(idx)
	return idx
}

func (t *tracer) endOp(idx int32, end time.Time) {
	t.curOp.Store(-1)
	t.finish(idx, int64(end.Sub(t.epoch)))
}

// recorded returns the spans so far and how many did not fit.
func (t *tracer) recorded() ([]span, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.dropped
}

// selfTimes returns, per layer, the summed self time (span duration minus
// the part its children cover) of every span that descends from a recorded
// op span, plus the number of op spans and their summed duration. Spans
// whose op was not sampled have no recorded root and are left out, so the
// three layers always add up to the op total.
func selfTimes(spans []span) (self [numLayers]int64, ops int, opTotal int64) {
	children := make([]int64, len(spans))
	rooted := make([]bool, len(spans))
	for i, s := range spans {
		switch {
		case s.kind == spanOp:
			rooted[i] = true
			ops++
			opTotal += s.end - s.start
		case s.parent >= 0 && rooted[s.parent]:
			// A parent is always appended before its children.
			rooted[i] = true
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		if rooted[i] {
			self[s.kind.layer()] += s.end - s.start - children[i]
		}
	}
	return self, ops, opTotal
}

// maxDumpSpans bounds trace.json; the summary above it covers every span.
const maxDumpSpans = 5000

// dump writes the summary and the first maxDumpSpans spans to
// <dir>/trace.json. Each span is [index, parent, name, start_ns, dur_ns].
func (t *tracer) dump(dir, workload string, seed uint64) error {
	spans, dropped := t.recorded()
	self, ops, opTotal := selfTimes(spans)
	calls := map[string]uint64{}
	for k := spanKind(0); k < numSpanKinds; k++ {
		calls[spanNames[k]] = t.calls[k].Load()
	}
	n := len(spans)
	if n > maxDumpSpans {
		n = maxDumpSpans
	}
	rows := make([][5]any, n)
	for i, s := range spans[:n] {
		rows[i] = [5]any{i, s.parent, spanNames[s.kind], s.start, s.end - s.start}
	}
	doc := map[string]any{
		"workload":       workload,
		"seed":           seed,
		"spans_recorded": len(spans),
		"spans_dropped":  dropped,
		"spans_written":  n,
		"op_spans":       ops,
		"op_total_ns":    opTotal,
		"self_ns":        map[string]int64{"client": self[layerClient], "fabric": self[layerFabric], "remote": self[layerRemote]},
		"calls":          calls,
		"bytes_fetched":  t.bytesFetched.Load(),
		"bytes_pushed":   t.bytesPushed.Load(),
		"span_columns":   []string{"index", "parent", "name", "start_ns", "dur_ns"},
		"spans":          rows,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644)
}

// beginChild opens a span under whatever is open one level up; level is
// where the new span publishes itself for the level below, nil for a leaf.
func (t *tracer) beginChild(kind spanKind, parent, level *atomic.Int32) int32 {
	idx := t.begin(kind, parent.Load(), t.now())
	if level != nil {
		level.Store(idx)
	}
	return idx
}

func (t *tracer) endChild(idx int32, level *atomic.Int32) {
	if level != nil {
		level.Store(-1)
	}
	t.finish(idx, t.now())
}

// tracedTransport decorates the dialed TCPTransport at the
// fabric.ErrorTransport seam. With the tracer off (set-up, warm-up) calls
// pass straight through.
type tracedTransport struct {
	inner *fabric.TCPTransport
	tr    *tracer
}

func (t *tracedTransport) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if !t.tr.on.Load() {
		return t.inner.TryFetchUntil(key, dst, dl)
	}
	idx := t.tr.beginChild(spanFetch, &t.tr.curOp, &t.tr.curTransport)
	found, err := t.inner.TryFetchUntil(key, dst, dl)
	t.tr.endChild(idx, &t.tr.curTransport)
	t.tr.bytesFetched.Add(uint64(len(dst)))
	return found, err
}

func (t *tracedTransport) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if !t.tr.on.Load() {
		return t.inner.TryPushUntil(key, src, dl)
	}
	idx := t.tr.beginChild(spanPush, &t.tr.curOp, &t.tr.curTransport)
	err := t.inner.TryPushUntil(key, src, dl)
	t.tr.endChild(idx, &t.tr.curTransport)
	t.tr.bytesPushed.Add(uint64(len(src)))
	return err
}

func (t *tracedTransport) TryDeleteUntil(key uint64, dl fabric.Deadline) error {
	if !t.tr.on.Load() {
		return t.inner.TryDeleteUntil(key, dl)
	}
	idx := t.tr.beginChild(spanDelete, &t.tr.curOp, &t.tr.curTransport)
	err := t.inner.TryDeleteUntil(key, dl)
	t.tr.endChild(idx, &t.tr.curTransport)
	return err
}

// tracedStore decorates the server's store at the fabric.BlobStore seam.
type tracedStore struct {
	inner fabric.BlobStore
	tr    *tracer
}

func (s *tracedStore) Put(key uint64, src []byte) error {
	if !s.tr.on.Load() {
		return s.inner.Put(key, src)
	}
	idx := s.tr.beginChild(spanPut, &s.tr.curTransport, nil)
	err := s.inner.Put(key, src)
	s.tr.endChild(idx, nil)
	return err
}

func (s *tracedStore) Get(key uint64, dst []byte) (bool, error) {
	if !s.tr.on.Load() {
		return s.inner.Get(key, dst)
	}
	idx := s.tr.beginChild(spanGet, &s.tr.curTransport, nil)
	found, err := s.inner.Get(key, dst)
	s.tr.endChild(idx, nil)
	return found, err
}

func (s *tracedStore) Delete(key uint64) error {
	if !s.tr.on.Load() {
		return s.inner.Delete(key)
	}
	idx := s.tr.beginChild(spanStoreDelete, &s.tr.curTransport, nil)
	err := s.inner.Delete(key)
	s.tr.endChild(idx, nil)
	return err
}

// nullTransport and nullStore replace the layer beneath the one being
// timed in isolation: every call succeeds at once and moves no bytes.
type nullTransport struct{}

func (nullTransport) TryFetchUntil(uint64, []byte, fabric.Deadline) (bool, error) { return true, nil }
func (nullTransport) TryPushUntil(uint64, []byte, fabric.Deadline) error          { return nil }
func (nullTransport) TryDeleteUntil(uint64, fabric.Deadline) error                { return nil }

type nullStore struct{}

func (nullStore) Put(uint64, []byte) error         { return nil }
func (nullStore) Get(uint64, []byte) (bool, error) { return true, nil }
func (nullStore) Delete(uint64) error              { return nil }

var (
	_ fabric.ErrorTransport = (*tracedTransport)(nil)
	_ fabric.ErrorTransport = nullTransport{}
	_ fabric.BlobStore      = (*tracedStore)(nil)
	_ fabric.BlobStore      = nullStore{}
)

// The pool takes the overlapped-prefetch path only when its transport is a
// fabric.AsyncFetcher. TCPTransport is not one, so the decorator must not
// be either, or tracing would change the path taken. Each line below stops
// compiling ("ambiguous selector") the day its embedded type grows a
// TryFetchAsync method: the first says the decorator must then forward it,
// the second that it must not have one before then.
type asyncMarker struct{}

func (asyncMarker) TryFetchAsync() {}

var (
	_ = struct {
		*fabric.TCPTransport
		asyncMarker
	}{}.TryFetchAsync
	_ = struct {
		*tracedTransport
		asyncMarker
	}{}.TryFetchAsync
)
