package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded from the
// harness's side of the call. Spans of one frame (or echo, or control
// op) share Trace; Parent names the span that caused this one.
type span struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Lost    bool   `json:"lost,omitempty"` // the frame never reached the sink
}

// traceDoc is the file a traced round writes: spans plus the counts
// taken at the same boundaries.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Sampling string             `json:"sampling"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`

	sendNs, owdUs []float64 // ascending; the per-layer metrics' samples
}

// buildTrace joins the raw per-goroutine records into spans. A frame's
// root span runs from the Send call to the sink's Recv return; flight
// is whatever of that Send did not cover.
func buildTrace(spec roundSpec, st *stream, echo echoResult, ops []opRec) *traceDoc {
	tr := &traceDoc{
		Workload: spec.Workload, Seed: spec.Seed,
		Sampling: fmt.Sprintf("1 frame in %d, every control op", traceEvery),
	}
	for _, fl := range st.flows {
		recvAt := make(map[uint64]int64, len(fl.recvs))
		for _, r := range fl.recvs {
			recvAt[r.seq] = r.t
		}
		for _, s := range fl.sends {
			id := fmt.Sprintf("flow%d/%d", fl.id, s.seq)
			tr.sendNs = append(tr.sendNs, float64(s.t1-s.t0))
			t2, ok := recvAt[s.seq]
			if !ok {
				tr.Spans = append(tr.Spans,
					span{Trace: id, Name: "frame", StartNs: s.t0, EndNs: s.t1, Lost: true},
					span{Trace: id, Name: "overlay.send", Parent: "frame", StartNs: s.t0, EndNs: s.t1})
				continue
			}
			tr.owdUs = append(tr.owdUs, float64(t2-s.t0)/1e3)
			tr.Spans = append(tr.Spans,
				span{Trace: id, Name: "frame", StartNs: s.t0, EndNs: max(t2, s.t1)},
				span{Trace: id, Name: "overlay.send", Parent: "frame", StartNs: s.t0, EndNs: s.t1},
				span{Trace: id, Name: "flight", Parent: "frame", StartNs: min(s.t1, t2), EndNs: t2})
		}
	}
	turnAt := make(map[uint64]turnRec, len(echo.turns))
	for _, t := range echo.turns {
		turnAt[t.seq] = t
	}
	for _, e := range echo.recs {
		id := fmt.Sprintf("echo/%d", e.seq)
		tr.Spans = append(tr.Spans,
			span{Trace: id, Name: "echo", StartNs: e.t0, EndNs: e.t3},
			span{Trace: id, Name: "overlay.send", Parent: "echo", StartNs: e.t0, EndNs: e.t1})
		if t, ok := turnAt[e.seq]; ok {
			tr.Spans = append(tr.Spans,
				span{Trace: id, Name: "flight", Parent: "echo", StartNs: min(e.t1, t.r0), EndNs: t.r0},
				span{Trace: id, Name: "echo.turn", Parent: "echo", StartNs: t.r0, EndNs: t.r1},
				span{Trace: id, Name: "flight", Parent: "echo", StartNs: min(t.r1, e.t3), EndNs: e.t3})
		}
	}
	for i, o := range ops {
		tr.Spans = append(tr.Spans, span{Trace: fmt.Sprintf("control/%d", i), Name: "control.do", StartNs: o.t0, EndNs: o.t1})
	}
	sort.Float64s(tr.sendNs)
	sort.Float64s(tr.owdUs)
	return tr
}

// layerMetrics writes the metrics only a traced round can produce.
func (tr *traceDoc) layerMetrics(L map[string]float64) {
	L["overlay.send_p50_ns"] = percentile(tr.sendNs, 50)
	L["overlay.send_p99_ns"] = percentile(tr.sendNs, 99)
	L["overlay.owd_p50_us"] = percentile(tr.owdUs, 50)
	L["overlay.owd_p99_us"] = percentile(tr.owdUs, 99)
}

func (tr *traceDoc) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
