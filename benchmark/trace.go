package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"time"
)

// Span names: one operation, the View or Update it issues, the closure
// the engine calls back, and each Ptr/VPtr call inside the closure.
const (
	spanOp uint8 = iota
	spanView
	spanUpdate
	spanClosure
	spanDeref
	spanVDeref
	spanHistory
	spanAsOf
	spanNewVersion
	spanSet
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "ode.view", "ode.update", "closure", "ode.deref", "ode.vderef",
	"ode.history", "ode.asof", "ode.newversion", "ode.set",
}

type span struct {
	name       uint8
	parent     int32 // index in the same client's spans; -1 at the root
	op         uint32
	start, end int64 // ns since the recorder's base
}

// recorder holds one client's spans in memory until the workload ends.
// A nil recorder records nothing: the untraced run passes nil.
type recorder struct {
	base  time.Time
	spans []span
	op    uint32
}

const noSpan = int32(-1)

func newRecorder(base time.Time, ops int) *recorder {
	// An operation on two objects records ten spans; most record four.
	return &recorder{base: base, spans: make([]span, 0, ops*6)}
}

func (r *recorder) begin(name uint8, parent int32) int32 {
	if r == nil {
		return noSpan
	}
	r.spans = append(r.spans, span{name: name, parent: parent, op: r.op, start: int64(time.Since(r.base))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].end = int64(time.Since(r.base))
	}
}

// spanTimes collects, per span name, every span's duration and its self
// time: the duration minus what its child spans cover.
func spanTimes(recs []*recorder) (total, self [numSpanNames][]int64) {
	for _, r := range recs {
		own := make([]int64, len(r.spans))
		for i, s := range r.spans {
			own[i] += s.end - s.start
			if s.parent >= 0 {
				own[s.parent] -= s.end - s.start
			}
		}
		for i, s := range r.spans {
			total[s.name] = append(total[s.name], s.end-s.start)
			self[s.name] = append(self[s.name], own[i])
		}
	}
	for i := range total {
		slices.Sort(total[i])
		slices.Sort(self[i])
	}
	return total, self
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for client, r := range recs {
		for _, s := range r.spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, spanNames[s.name]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"op_id":`...)
			line = strconv.AppendUint(line, uint64(s.op), 10)
			line = append(line, `,"client":`...)
			line = strconv.AppendInt(line, int64(client), 10)
			line = append(line, "}\n"...)
			w.Write(line) // the error stays in w and Flush returns it
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
