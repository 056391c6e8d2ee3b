package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one recorded call into a layer: its layer and call name, the
// span that caused it, the operation it belongs to, its interval and the
// heap allocations made inside it (children included).
type span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the span list; -1 for a root
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs"`
}

// layerAcc accumulates one layer's spans: calls, self time (span time not
// covered by child spans) and self allocations.
type layerAcc struct {
	calls  int
	selfNS int64
	allocs int64
}

// open is a span on the tracer's stack.
type open struct {
	idx         int
	startAllocs uint64
	childNS     int64
	childAllocs uint64
}

// tracer records spans around the benchmark's calls into each layer. It
// runs on one goroutine at a time — the traced pass uses one worker — so
// spans nest strictly and allocation counts are exact. A nil or disabled
// tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	stack []open
	op    int
	acc   map[string]*layerAcc
	// sums are named per-run totals the layer metrics are computed from
	// (stage times, point and byte counts).
	sums map[string]float64
	ms   runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, 1<<14),
		acc:   make(map[string]*layerAcc),
		sums:  make(map[string]float64),
	}
}

// mallocs reads the exact cumulative heap allocation count. ReadMemStats
// flushes every P's cache, which the cheaper runtime/metrics reading does
// not, so counts stay exact at span granularity.
func (t *tracer) mallocs() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

// begin opens a span for a call into layer.
func (t *tracer) begin(layer, name string) {
	if t == nil {
		return
	}
	allocs := t.mallocs()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	t.spans = append(t.spans, span{
		Layer: layer, Name: name, Parent: parent, Op: t.op,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	t.stack = append(t.stack, open{idx: len(t.spans) - 1, startAllocs: allocs})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	allocs := t.mallocs()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[o.idx]
	s.EndNS = now
	s.Allocs = allocs - o.startAllocs
	dur := s.EndNS - s.StartNS
	a := t.acc[s.Layer]
	if a == nil {
		a = &layerAcc{}
		t.acc[s.Layer] = a
	}
	a.calls++
	a.selfNS += dur - o.childNS
	a.allocs += int64(s.Allocs) - int64(o.childAllocs)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNS += dur
		t.stack[n-1].childAllocs += s.Allocs
	}
}

// shift moves self time and allocations out of a layer. The traced hub
// pass calls it when a probe re-measured, under another layer's span,
// work an opaque span of this layer already holds.
func (t *tracer) shift(layer string, d time.Duration, allocs uint64) {
	if a := t.acc[layer]; a != nil {
		a.selfNS -= d.Nanoseconds()
		a.allocs -= int64(allocs)
	}
}

// add accumulates a named total.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// addDur accumulates a duration total in milliseconds.
func (t *tracer) addDur(name string, d time.Duration) { t.add(name, ms(d)) }

// nextOp starts attributing spans to the next operation.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// ratio divides two named totals, 0 when the denominator is 0.
func (t *tracer) ratio(num, den string) float64 {
	if t.sums[den] == 0 {
		return 0
	}
	return t.sums[num] / t.sums[den]
}

// layerValues fills the per-operation calls/self_ms/allocs metrics of
// every layer from ops traced operations.
func (t *tracer) layerValues(values map[string]float64, ops int) {
	for _, l := range layers {
		a := t.acc[l]
		if a == nil || ops == 0 {
			values[l+".calls"], values[l+".self_ms"], values[l+".allocs"] = 0, 0, 0
			continue
		}
		n := float64(ops)
		values[l+".calls"] = float64(a.calls) / n
		values[l+".self_ms"] = float64(a.selfNS) / 1e6 / n
		values[l+".allocs"] = float64(a.allocs) / n
	}
}

// dump writes the recorded spans as JSON to dir/name.
func (t *tracer) dump(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
