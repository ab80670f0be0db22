package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/tuple"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// Span names, one per layer boundary the traced run wraps. The nesting of
// one routed query is client > gate > router > backend > edge > node; a
// direct query is client > edge > node.
const (
	spanClient  = "client"           // one load-generator operation
	spanGate    = "tenant.gate"      // the tenant gate's handler
	spanRouter  = "shard.router"     // the router's handler
	spanBackend = "shard.backend"    // one shard.Backend.QueryStream call
	spanEdge    = "wsda.edge"        // a registry node's /wsda/xquery handler
	spanNode    = "registry.xquery"  // wsda.Node.XQuery, Emit time aggregated
	spanPublish = "registry.publish" // wsda.Node.Publish
	spanMinQ    = "registry.minquery"
	spanFeed    = "changefeed.feed" // one /wsda/feed long-poll round
)

// span is one recorded interval. Times are nanoseconds since the run
// started. Tx is the request identifier: the tx query parameter for
// queries, the tuple link for writes and SDK misses. Parent is filled
// after the run from the layer nesting, the tx, the shard and time
// containment.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Tx     string `json:"tx"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	First  int64  `json:"first_ns,omitempty"` // first item out (node, backend) or in (client)
	Emit   int64  `json:"emit_ns,omitempty"`  // time spent inside Emit (node)
	Items  int    `json:"items,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Note   string `json:"note,omitempty"` // op class, plan mode or HTTP status
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer is the untraced run:
// every wrap method returns its argument unchanged and record is a no-op,
// so both runs execute the same program minus the wrappers.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	paused bool // spans ending while paused are dropped
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) record(s span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.paused {
		s.ID = len(tr.spans) + 1
		tr.spans = append(tr.spans, s)
	}
	tr.mu.Unlock()
}

// pause stops (true) or resumes (false) recording.
func (tr *tracer) pause(on bool) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.paused = on
	tr.mu.Unlock()
}

// reset drops every span recorded so far (set-up and warm-up traffic).
func (tr *tracer) reset() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = nil
	tr.mu.Unlock()
}

// ---- wrappers ----------------------------------------------------------

// statusWriter counts response bytes and keeps the status while still
// exposing http.Flusher, which the stream writer needs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	body   *bytes.Buffer // captured body, when non-nil
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.body != nil {
		w.body.Write(p)
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// wrapHTTP records one span per request whose path matches.
func (tr *tracer) wrapHTTP(h http.Handler, name string, shardIdx int, match func(*http.Request) bool) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !match(r) {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := tr.now()
		h.ServeHTTP(sw, r)
		tr.record(span{Name: name, Tx: r.URL.Query().Get("tx"), Shard: shardIdx,
			Start: start, End: tr.now(), Bytes: sw.bytes, Note: fmt.Sprint(sw.status)})
	})
}

func isQuery(r *http.Request) bool { return r.URL.Path == wsda.PathXQuery }

func isWSDA(r *http.Request) bool {
	return r.URL.Path == wsda.PathXQuery || r.URL.Path == wsda.PathPublish ||
		r.URL.Path == wsda.PathUnpublish || r.URL.Path == wsda.PathMinQuery
}

func (tr *tracer) wrapGate(h http.Handler) http.Handler {
	return tr.wrapHTTP(h, spanGate, 0, isWSDA)
}

func (tr *tracer) wrapRouter(h http.Handler) http.Handler {
	return tr.wrapHTTP(h, spanRouter, 0, isWSDA)
}

func (tr *tracer) wrapEdge(h http.Handler, shardIdx int) http.Handler {
	return tr.wrapHTTP(h, spanEdge, shardIdx, isQuery)
}

// wrapFeed records each feed round with its hold time and the number of
// changes its page carried.
func (tr *tracer) wrapFeed(h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, body: &bytes.Buffer{}}
		start := tr.now()
		h.ServeHTTP(sw, r)
		tr.record(span{Name: spanFeed, Start: start, End: tr.now(), Bytes: sw.bytes,
			Items: bytes.Count(sw.body.Bytes(), []byte("<change ")), Note: fmt.Sprint(sw.status)})
	})
}

// tracedBackend times every QueryStream call a router makes to one shard.
type tracedBackend struct {
	shard.Backend
	tr  *tracer
	idx int
}

func (tr *tracer) wrapBackend(b shard.Backend, idx int) shard.Backend {
	if tr == nil {
		return b
	}
	return &tracedBackend{Backend: b, tr: tr, idx: idx}
}

func (b *tracedBackend) QueryStream(ctx context.Context, spec shard.QuerySpec, onPlan func(string), onItem func(xq.Item) bool) (*wsda.StreamSummary, error) {
	sp := span{Name: spanBackend, Tx: spec.TxID, Shard: b.idx, Start: b.tr.now()}
	// The backend decodes its stream on the calling goroutine, so every
	// onItem call returns before QueryStream does.
	sum, err := b.Backend.QueryStream(ctx, spec, onPlan, func(it xq.Item) bool {
		if sp.Items == 0 {
			sp.First = b.tr.now()
		}
		sp.Items++
		return onItem(it)
	})
	sp.End = b.tr.now()
	if err != nil {
		sp.Note = "error"
	}
	b.tr.record(sp)
	return sum, err
}

// tracedNode times the registry calls behind a node's HTTP binding. For
// queries it also sums the time spent inside Emit — the stream writer's
// marshal, write and flush — so the registry's own share is the span
// minus that sum.
type tracedNode struct {
	wsda.Node
	tr  *tracer
	idx int
}

func (tr *tracer) wrapNode(n wsda.Node, idx int) wsda.Node {
	if tr == nil {
		return n
	}
	return &tracedNode{Node: n, tr: tr, idx: idx}
}

func (n *tracedNode) XQuery(query string, opts registry.QueryOptions) (xq.Sequence, error) {
	sp := span{Name: spanNode, Tx: opts.TxID, Shard: n.idx, Start: n.tr.now()}
	if emit := opts.Emit; emit != nil {
		opts.Emit = func(it xq.Item) bool {
			t0 := n.tr.now()
			if sp.Items == 0 {
				sp.First = t0
			}
			sp.Items++
			ok := emit(it)
			sp.Emit += n.tr.now() - t0
			return ok
		}
	}
	seq, err := n.Node.XQuery(query, opts)
	sp.End = n.tr.now()
	if opts.Emit == nil {
		sp.Items = len(seq)
	}
	sp.Note = "view"
	if opts.Explain != nil && opts.Explain.Mode != "" {
		sp.Note = opts.Explain.Mode
	}
	n.tr.record(sp)
	return seq, err
}

func (n *tracedNode) Publish(t *tuple.Tuple, ttl time.Duration) (time.Duration, error) {
	start := n.tr.now()
	d, err := n.Node.Publish(t, ttl)
	n.tr.record(span{Name: spanPublish, Tx: t.Link, Shard: n.idx, Start: start, End: n.tr.now()})
	return d, err
}

func (n *tracedNode) MinQuery(f registry.Filter) ([]*tuple.Tuple, error) {
	start := n.tr.now()
	ts, err := n.Node.MinQuery(f)
	n.tr.record(span{Name: spanMinQ, Tx: f.LinkPrefix, Shard: n.idx, Start: start, End: n.tr.now(), Items: len(ts)})
	return ts, err
}

// ---- analysis ----------------------------------------------------------

// parentLayer gives, for each span name, the name of the layer that
// causes it. Edge spans hang off a backend when routed, off the client
// otherwise; registry write and MinQuery spans hang off the client
// operation that carried the same tuple link.
func parentLayer(name string, routed bool) string {
	switch name {
	case spanGate:
		return spanClient
	case spanRouter:
		return spanGate
	case spanBackend:
		return spanRouter
	case spanEdge:
		if routed {
			return spanBackend
		}
		return spanClient
	case spanNode:
		return spanEdge
	case spanPublish, spanMinQ:
		return spanClient
	}
	return ""
}

// link fills Parent for every span: the innermost span of the parent
// layer with the same tx (and, below the router, the same shard) whose
// interval contains the child's start.
func (tr *tracer) link(routed bool) []span {
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	type key struct {
		name, tx string
	}
	byKey := map[key][]int{}
	for i := range spans {
		k := key{spans[i].Name, spans[i].Tx}
		byKey[k] = append(byKey[k], i)
	}
	for i := range spans {
		c := &spans[i]
		pl := parentLayer(c.Name, routed)
		if pl == "" || c.Tx == "" {
			continue
		}
		sameShard := pl == spanBackend || pl == spanEdge
		best := -1
		for _, j := range byKey[key{pl, c.Tx}] {
			p := &spans[j]
			if sameShard && p.Shard != c.Shard {
				continue
			}
			if p.Start <= c.Start && c.Start <= p.End && (best < 0 || p.Start >= spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
	return spans
}

// children indexes spans by parent ID.
func children(spans []span) map[int][]*span {
	out := map[int][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			out[p] = append(out[p], &spans[i])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi]: the part of a parent's time its children account for.
func covered(kids []*span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}
