package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval at a boundary the benchmark owns. Times are
// nanoseconds since the recorder started; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, which is how the untraced run stays untraced.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID for children to name.
func (r *recorder) add(name, op string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// reserve hands out an ID before the span ends, so children recorded while
// the parent is still open can point at it; finish fills in the interval.
func (r *recorder) reserve(name, op string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op})
	r.mu.Unlock()
	return id
}

func (r *recorder) finish(id int, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Start = start.Sub(r.t0).Nanoseconds()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children (a fan-out)
// are counted once, and a child that sticks out of its parent is clipped.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		end = s.Start
		for _, c := range iv {
			lo := max(c[0], end)
			if c[1] > lo {
				covered += c[1] - lo
				end = c[1]
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanRow is one line of the "where the time goes" table.
type spanRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfPct float64 `json:"self_pct_of_roots"`
}

// whereTimeGoes folds a trace by span name. Shares are of the summed root
// durations, so a workload's rows add up to 100% of what the roots cover.
func whereTimeGoes(spans []span) []spanRow {
	self := selfTimes(spans)
	rows := map[string]*spanRow{}
	var rootTotal float64
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &spanRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += float64(s.End-s.Start) / 1e9
		r.SelfS += float64(self[s.ID]) / 1e9
		if s.Parent == 0 {
			rootTotal += float64(s.End-s.Start) / 1e9
		}
	}
	out := make([]spanRow, 0, len(rows))
	for _, r := range rows {
		if rootTotal > 0 {
			r.SelfPct = 100 * r.SelfS / rootTotal
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
