package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans are taken from outside the program, through its public
// functions; spans inside the program are a later change.
type span struct {
	Rung   string `json:"rung"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder was made
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index of the parent span in the rung's file order, -1 for a root
	Op     int    `json:"op"`
	ID     int32  `json:"id"`
}

// recorder keeps spans in memory until the run ends. It is used by one
// goroutine at a time (the ledger is a serial client); a nil recorder
// records nothing, which is how the untraced runs call the same code.
type recorder struct {
	rung  string
	epoch time.Time
	spans []span
}

func newRecorder(rung string, capacity int) *recorder {
	return &recorder{rung: rung, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id, -1 from a nil recorder.
func (r *recorder) begin(name string, parent int32, op int) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Rung: r.rung, Name: name, Parent: parent, Op: op, ID: id, Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// selfTimes returns, for every span, its duration minus the part covered
// by its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName totals self time, in ns, per span name.
func selfByName(spans []span) map[string]int64 {
	self := map[string]int64{}
	st := selfTimes(spans)
	for i, s := range spans {
		self[s.Name] += st[i]
	}
	return self
}

// checkForest verifies a rung's spans are well formed: parents precede
// their children, every child lies inside its parent's interval and
// shares its op id, and no self time is negative.
func checkForest(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s): ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			return fmt.Errorf("span %d (%s): parent %d does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s): outside parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s): op %d but parent has op %d", i, s.Name, s.Op, p.Op)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d (%s): negative self time %d ns", i, spans[i].Name, v)
		}
	}
	return nil
}

// writeSpans writes every rung's spans as JSON lines.
func writeSpans(path string, rungs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range rungs {
		if r == nil {
			continue
		}
		for i := range r.spans {
			if err := enc.Encode(&r.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNS measures what recording one span costs, so the trace's own
// overhead is a reported number and not a guess.
func spanCostNS() float64 {
	const n = 200_000
	r := newRecorder("calibrate", n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x", -1, i))
	}
	return float64(time.Since(t0)) / n
}
