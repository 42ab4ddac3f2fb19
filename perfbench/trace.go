package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"caaction"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/resolve"
	"caaction/load"
)

// The traced run records spans from the benchmark's own files, around the
// calls it makes into each layer and the hooks the public API exposes:
// StartTagged and WaitDone (facade), role bodies and handlers (program), a
// resolution protocol wrapper passed with WithResolutionProtocol (resolve,
// and through its Config.Send and Config.Resolve, transport and except), and
// a Recorder wrapper around the WAL (wal). The Network is deliberately not
// wrapped: the mux type-asserts the real network to run the inline lane, so
// a wrapper would trace a different program.

// keepActions bounds how many actions' spans are kept for the trace file.
const keepActions = 2000

// actionTrace collects one traced action's spans and the timestamps the
// derived per-layer metrics need. Role threads of the action add to it
// concurrently.
type actionTrace struct {
	tag, kind string

	mu          sync.Mutex
	spans       []span
	firstBody   int64
	lastBodyEnd int64
	bodyEnd     map[string]int64 // role → body return
	raised      map[string]int64 // thread → local raise
	abortRaise  int64
	decides     []int64
}

type walAppend struct {
	at  int64
	dur time.Duration
}

// tracer owns the traced run's spans and aggregates.
type tracer struct {
	origin time.Time
	roles  int

	live sync.Map // instance tag → *actionTrace

	mu                                sync.Mutex
	layerNS                           map[string]int64
	actions                           int
	spanCount                         int
	kept                              []*actionTrace
	lat                               map[string][]time.Duration // derived and per-kind latencies
	raiseSelf, deliverSelf, exceptDur time.Duration
	raises, delivers, exceptCalls     int
	instances, peersSum               int
	walByKind                         map[string][]time.Duration
	walAll                            []walAppend
}

func newTracer(roles int) *tracer {
	return &tracer{
		origin:    time.Now(),
		roles:     roles,
		layerNS:   make(map[string]int64),
		lat:       make(map[string][]time.Duration),
		walByKind: make(map[string][]time.Duration),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// tagOf extracts the instance tag from an action identifier
// ("tag!outer#1/inner#2").
func tagOf(action string) string {
	tag, _, _ := strings.Cut(action, "!")
	return tag
}

func (t *tracer) lookup(tag string) *actionTrace {
	v, ok := t.live.Load(tag)
	if !ok {
		return nil
	}
	return v.(*actionTrace)
}

// begin registers an action before it is started, so that spans recorded
// by its role threads find it.
func (t *tracer) begin(tag, kind string) *actionTrace {
	at := &actionTrace{
		tag: tag, kind: kind,
		spans:   make([]span, 1, 32),
		bodyEnd: make(map[string]int64, t.roles),
		raised:  make(map[string]int64, t.roles),
	}
	at.spans[0] = span{Name: "action", Layer: layerUnattributed, Parent: -1}
	t.live.Store(tag, at)
	return at
}

func (at *actionTrace) add(s span) {
	at.mu.Lock()
	at.spans = append(at.spans, s)
	at.mu.Unlock()
}

// finish closes an action: root span [start, end], derived core spans,
// layer attribution and the derived latencies.
func (t *tracer) finish(at *actionTrace, start, started, end int64) {
	t.live.Delete(at.tag)
	at.mu.Lock()
	at.spans[0].Start, at.spans[0].End = start, end
	at.spans = append(at.spans, span{Name: "facade.start", Layer: layerFacade, Start: start, End: started})
	lat := map[string]time.Duration{"kind." + at.kind: time.Duration(end - start)}
	if at.firstBody > 0 {
		at.spans = append(at.spans, span{Name: "facade.entry", Layer: layerFacade, Start: start, End: at.firstBody})
		lat["facade.entry"] = time.Duration(at.firstBody - start)
	}
	if at.lastBodyEnd > 0 {
		at.spans = append(at.spans, span{Name: "core.exit", Layer: layerCore, Start: at.lastBodyEnd, End: end})
		lat["core.exit"] = time.Duration(end - at.lastBodyEnd)
	}
	if at.kind == load.KindAbort && at.abortRaise > 0 {
		// The nested roles' bodies return right after their Enter does.
		raiser := load.RoleName(t.roles - 1)
		var last int64
		for role, e := range at.bodyEnd {
			if role != raiser {
				last = max(last, e)
			}
		}
		if last > at.abortRaise {
			lat["core.abort"] = time.Duration(last - at.abortRaise)
		}
	}
	lat["facade.start"] = time.Duration(started - start)
	byLayer := attribute(at.spans)
	decides := at.decides
	nspans := len(at.spans)
	at.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.actions++
	t.spanCount += nspans
	for k, v := range byLayer {
		t.layerNS[k] += v
	}
	for k, v := range lat {
		t.lat[k] = append(t.lat[k], v)
	}
	for _, d := range decides {
		t.lat["resolve.decide"] = append(t.lat["resolve.decide"], time.Duration(d))
	}
	if len(t.kept) < keepActions {
		t.kept = append(t.kept, at)
	}
}

// wrapPrograms returns progs with every body and handler timed.
func (t *tracer) wrapPrograms(progs map[string]caaction.RoleProgram) map[string]caaction.RoleProgram {
	out := make(map[string]caaction.RoleProgram, len(progs))
	for role, p := range progs {
		body := p.Body
		wp := caaction.RoleProgram{Body: func(ctx *caaction.Context) error {
			at := t.lookup(ctx.InstanceTag())
			if at == nil {
				return body(ctx)
			}
			s := t.now()
			at.mu.Lock()
			if at.firstBody == 0 || s < at.firstBody {
				at.firstBody = s
			}
			at.mu.Unlock()
			err := body(ctx)
			e := t.now()
			at.mu.Lock()
			at.spans = append(at.spans, span{Name: "body", Layer: layerProgram, Role: ctx.Role(), Start: s, End: e})
			at.lastBodyEnd = max(at.lastBodyEnd, e)
			at.bodyEnd[ctx.Role()] = e
			at.mu.Unlock()
			return err
		}}
		if len(p.Handlers) > 0 {
			wp.Handlers = make(map[caaction.Exception]caaction.Handler, len(p.Handlers))
			for exc, h := range p.Handlers {
				wp.Handlers[exc] = func(ctx *caaction.Context, resolved caaction.Exception, raised []caaction.Raised) error {
					at := t.lookup(ctx.InstanceTag())
					if at == nil {
						return h(ctx, resolved, raised)
					}
					s := t.now()
					at.mu.Lock()
					if r, ok := at.raised[ctx.Self()]; ok {
						at.decides = append(at.decides, s-r)
					}
					at.mu.Unlock()
					err := h(ctx, resolved, raised)
					at.add(span{Name: "handler", Layer: layerProgram, Role: ctx.Role(), Start: s, End: t.now()})
					return err
				}
			}
		}
		out[role] = wp
	}
	return out
}

// tracedProtocol wraps a resolution protocol, timing every Raise and
// Deliver and, inside them, every Send (transport) and Resolve (except).
type tracedProtocol struct {
	inner resolve.Protocol
	t     *tracer
}

func (p tracedProtocol) Name() string { return p.inner.Name() }

func (p tracedProtocol) NewInstance(cfg resolve.Config) resolve.Instance {
	ti := &tracedInstance{t: p.t, at: p.t.lookup(tagOf(cfg.Action)), self: cfg.Self,
		topLevel: !strings.Contains(cfg.Action, "/")}
	send, res := cfg.Send, cfg.Resolve
	cfg.Send = func(to string, msg protocol.Message) {
		s := ti.t.now()
		send(to, msg)
		ti.children = append(ti.children, span{Name: "transport.send", Layer: layerTransport, Start: s, End: ti.t.now()})
	}
	cfg.Resolve = func(raised []except.Raised) except.ID {
		s := ti.t.now()
		id := res(raised)
		ti.children = append(ti.children, span{Name: "except.resolve", Layer: layerExcept, Start: s, End: ti.t.now()})
		return id
	}
	ti.inner = p.inner.NewInstance(cfg)
	p.t.mu.Lock()
	p.t.instances++
	p.t.peersSum += len(cfg.Peers)
	p.t.mu.Unlock()
	return ti
}

// tracedInstance is confined to its thread's event loop, like the instance
// it wraps, so children needs no lock.
type tracedInstance struct {
	inner    resolve.Instance
	t        *tracer
	at       *actionTrace
	self     string
	topLevel bool
	children []span
}

func (ti *tracedInstance) State() resolve.State { return ti.inner.State() }

func (ti *tracedInstance) Raise(exc except.Raised) resolve.Outcome {
	s := ti.t.now()
	if ti.at != nil {
		ti.at.mu.Lock()
		ti.at.raised[ti.self] = s
		if ti.topLevel && ti.at.kind == load.KindAbort && ti.self == load.ThreadName(ti.t.roles-1) {
			ti.at.abortRaise = s
		}
		ti.at.mu.Unlock()
	}
	out := ti.inner.Raise(exc)
	ti.record("resolve.raise", s)
	return out
}

func (ti *tracedInstance) Deliver(from string, msg protocol.Message) (resolve.Outcome, error) {
	s := ti.t.now()
	out, err := ti.inner.Deliver(from, msg)
	ti.record("resolve.deliver", s)
	return out, err
}

// record files one Raise or Deliver span with the Send and Resolve calls
// made inside it, and its self time.
func (ti *tracedInstance) record(name string, start int64) {
	sp := span{Name: name, Layer: layerResolve, Start: start, End: ti.t.now()}
	self := time.Duration(selfTime(sp, ti.children))
	var exc time.Duration
	var excCalls int
	for _, c := range ti.children {
		if c.Layer == layerExcept {
			exc += time.Duration(c.End - c.Start)
			excCalls++
		}
	}
	ti.t.mu.Lock()
	if name == "resolve.raise" {
		ti.t.raiseSelf += self
		ti.t.raises++
	} else {
		ti.t.deliverSelf += self
		ti.t.delivers++
	}
	ti.t.exceptDur += exc
	ti.t.exceptCalls += excCalls
	ti.t.mu.Unlock()
	if ti.at != nil {
		ti.at.mu.Lock()
		sp.Parent = 0
		idx := len(ti.at.spans)
		ti.at.spans = append(ti.at.spans, sp)
		for _, c := range ti.children {
			c.Parent = idx
			ti.at.spans = append(ti.at.spans, c)
		}
		ti.at.mu.Unlock()
	}
	ti.children = ti.children[:0]
}

// tracedWAL times every append the runtime makes to the WAL.
type tracedWAL struct {
	w *caaction.WAL
	t *tracer
}

func (tw *tracedWAL) RecordJoin(thread, action, role string) {
	s := tw.t.now()
	tw.w.RecordJoin(thread, action, role)
	tw.done("join", action, s)
}

func (tw *tracedWAL) RecordRaise(thread, action string, round int, exc string) {
	s := tw.t.now()
	tw.w.RecordRaise(thread, action, round, exc)
	tw.done("raise", action, s)
}

func (tw *tracedWAL) RecordVote(thread, action string, round int, exc string) {
	s := tw.t.now()
	tw.w.RecordVote(thread, action, round, exc)
	tw.done("vote", action, s)
}

func (tw *tracedWAL) RecordOutcome(thread, action, outcome string) {
	s := tw.t.now()
	tw.w.RecordOutcome(thread, action, outcome)
	tw.done("outcome", action, s)
}

func (tw *tracedWAL) done(kind, action string, s int64) {
	e := tw.t.now()
	d := time.Duration(e - s)
	tw.t.mu.Lock()
	tw.t.walByKind[kind] = append(tw.t.walByKind[kind], d)
	tw.t.walAll = append(tw.t.walAll, walAppend{at: s, dur: d})
	tw.t.mu.Unlock()
	if at := tw.t.lookup(tagOf(action)); at != nil {
		at.add(span{Name: "wal." + kind, Layer: layerWAL, Start: s, End: e, Parent: 0})
	}
}

// walQuarters is the mean append time over the first and the last quarter
// of the appends, in order: how append cost grows with the log's history.
func (t *tracer) walQuarters() (first, last time.Duration) {
	all := append([]walAppend(nil), t.walAll...)
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	n := len(all) / 4
	if n == 0 {
		return 0, 0
	}
	mean := func(xs []walAppend) time.Duration {
		var s time.Duration
		for _, x := range xs {
			s += x.dur
		}
		return s / time.Duration(len(xs))
	}
	return mean(all[:n]), mean(all[len(all)-n:])
}

// writeSpans writes the kept actions' spans, one JSON object a line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, at := range t.kept {
		for i, s := range at.spans {
			rec := struct {
				Action string `json:"action"`
				Kind   string `json:"kind"`
				Index  int    `json:"index"`
				span
			}{at.tag, at.kind, i, s}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("trace file: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
