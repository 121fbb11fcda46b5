package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fastcoalesce/internal/obs"
)

// Spans of a traced run stay in memory and are written as JSON lines
// when the run ends (-tracedir). The benchmark records its own spans
// around each window, each HTTP request and each probe call; a traced
// in-process window also converts the driver's phase events into spans
// under a job span, so one file holds the whole tree.

// span is one timed interval. Spans of one job or request share Trace.
type span struct {
	Trace  int64  `json:"trace_id"`
	ID     int64  `json:"span_id"`
	Parent int64  `json:"parent_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanLog collects spans; a nil *spanLog records nothing.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// id reserves a span (or trace) id.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a finished span with a reserved id.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// record times [start, end) as a new span and returns its id.
func (l *spanLog) record(trace, parent int64, layer, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	id := l.id()
	l.add(span{Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name,
		Start: int64(start.Sub(l.epoch)), Dur: int64(end.Sub(start))})
	return id
}

// write stores every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// phaseLayer names the module behind each driver phase.
func phaseLayer(p obs.Phase) string {
	switch p {
	case obs.PhaseParse:
		return "lang"
	case obs.PhaseDom, obs.PhaseDomSNCA:
		return "dom"
	case obs.PhaseLiveness, obs.PhaseLivenessSparse:
		return "liveness"
	case obs.PhaseSSABuild, obs.PhasePhiInstantiate:
		return "ssa"
	case obs.PhaseCoalesce1, obs.PhaseCoalesce2, obs.PhaseCoalesce3, obs.PhaseRewrite:
		return "core"
	case obs.PhaseVerify:
		return "ir"
	case obs.PhaseCheck:
		return "analysis"
	case obs.PhaseCache:
		return "cache"
	case obs.PhaseRegallocBuild, obs.PhaseRegallocColor, obs.PhaseRegallocSpill, obs.PhaseRegallocVerify:
		return "regalloc"
	}
	return "driver"
}

// phaseSelf folds one traced window's driver events into self time per
// phase (a span's duration minus its direct children's), keyed by phase
// name, and counts the jobs. Spans are added to log under parent, one
// trace per job; recStart is when the recorder was created, the origin
// of its event times.
func phaseSelf(rec *obs.Recorder, recStart time.Time, log *spanLog, parent int64) (self map[string]time.Duration, jobs int64) {
	var offset int64
	if log != nil {
		offset = int64(recStart.Sub(log.epoch))
	}
	evs := rec.Events()
	// Events of one tracer nest properly; sort by worker, then start,
	// outermost first, and rebuild the tree with a stack.
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Dur > b.Dur
	})
	self = map[string]time.Duration{}
	type open struct {
		ev          obs.Event
		id, trace   int64
		childrenDur time.Duration
	}
	var stack []open
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		self[top.ev.Phase.String()] += top.ev.Dur - top.childrenDur
		if len(stack) > 0 {
			stack[len(stack)-1].childrenDur += top.ev.Dur
		}
	}
	var worker int32 = -1
	for _, e := range evs {
		if e.Worker != worker {
			for len(stack) > 0 {
				closeTop()
			}
			worker = e.Worker
		}
		for len(stack) > 0 {
			t := stack[len(stack)-1].ev
			if e.Start >= t.Start && e.Start+e.Dur <= t.Start+t.Dur {
				break
			}
			closeTop()
		}
		o := open{ev: e, id: log.id()}
		par := parent
		if len(stack) > 0 {
			o.trace, par = stack[len(stack)-1].trace, stack[len(stack)-1].id
		} else {
			o.trace = log.id()
		}
		if e.Phase == obs.PhaseJob {
			jobs++
		}
		log.add(span{Trace: o.trace, ID: o.id, Parent: par, Layer: phaseLayer(e.Phase),
			Name:  e.Phase.String() + " " + rec.JobName(e.Job),
			Start: offset + int64(e.Start), Dur: int64(e.Dur)})
		stack = append(stack, o)
	}
	for len(stack) > 0 {
		closeTop()
	}
	return self, jobs
}

// familyJobNs returns the mean job span per corpus family, from job
// names of the form "<family>-<size>#<ordinal>"; other names are skipped.
func familyJobNs(rec *obs.Recorder) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, e := range rec.Events() {
		if e.Phase != obs.PhaseJob {
			continue
		}
		name, _, ok := strings.Cut(rec.JobName(e.Job), "#")
		if i := strings.LastIndexByte(name, '-'); ok && i > 0 {
			sum[name[:i]] += float64(e.Dur)
			n[name[:i]]++
		}
	}
	for f := range sum {
		sum[f] /= n[f]
	}
	return sum
}
