package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"wsda/internal/changefeed"
	"wsda/internal/registry"
	"wsda/internal/shard"
	"wsda/internal/telemetry"
	"wsda/internal/tenant"
	"wsda/internal/wsda"
)

// benchToken is the bearer token of the single tenant the gate admits.
// The tenant has no rate or concurrency quota: the benchmark measures the
// gate's admission path, not its throttling.
const benchToken = "e2ebench-token"

// discard silences the components' own logs; the benchmark reports what
// it measures on standard output.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// tupleTTL is the lifetime every tuple is published with: registryd's
// default (-default-ttl), which outlives any run, so no tuple expires
// while it is measured. churn-sdk derives its heartbeat rate from it.
const tupleTTL = 10 * time.Minute

// regNode is one hyper registry served on loopback HTTP with the wiring
// cmd/registryd gives it: LocalNode (behind a shard.Member guard when
// sharded), HandlerWithObservability with telemetry on, and the change
// feed.
type regNode struct {
	reg *registry.Registry
	url string
}

// stack is the serving side of one workload, booted inside this process.
// Every hop is real loopback HTTP; edge is the base URL clients use.
type stack struct {
	nodes   []*regNode
	edge    string
	servers []*http.Server
}

// serve starts h on a fresh loopback port with registryd's server
// timeouts and returns its base URL.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns http.ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits for their handlers to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx) // a handler still running past the deadline is cut
	}
}

// daemonTelemetry holds one process's worth of daemon telemetry.
type daemonTelemetry struct {
	metrics *telemetry.Metrics
	tracer  *telemetry.Tracer
	flight  *telemetry.FlightRecorder
}

func newTelemetry() daemonTelemetry {
	return daemonTelemetry{
		metrics: telemetry.NewMetrics(),
		tracer:  telemetry.NewTracer(telemetry.DefaultTraceCapacity),
		flight:  telemetry.NewFlightRecorder(telemetry.FlightConfig{SlowThreshold: telemetry.DefaultFirstItemTarget}),
	}
}

// bootRegistry starts one registry node. asgn.Total > 0 makes it a shard
// member that rejects publishes for keys it does not own.
func (s *stack) bootRegistry(name string, asgn shard.Assignment, tr *tracer) (*regNode, error) {
	tel := newTelemetry()
	reg := registry.New(registry.Config{
		Name:          name,
		DefaultTTL:    tupleTTL,
		MinTTL:        time.Second,
		MaxTTL:        24 * time.Hour,
		MaxQuerySteps: 10_000_000,
		Metrics:       tel.metrics,
		Tracer:        tel.tracer,
		Flight:        tel.flight,
	})
	desc := wsda.NewService(name).Owner("wsda").Build()
	var node wsda.Node = &wsda.LocalNode{Desc: desc, Registry: reg}
	var member *shard.Member
	if asgn.Sharded() {
		member = shard.NewMember(reg, asgn, tel.metrics, discard)
		node = member.Guard(node)
	}
	shardIdx := max(asgn.Index, 0)
	node = tr.wrapNode(node, shardIdx)

	mux := http.NewServeMux()
	mux.Handle("/wsda/", tr.wrapEdge(wsda.HandlerWithObservability(node, tel.metrics, tel.flight), shardIdx))
	feedMux := http.NewServeMux()
	changefeed.NewServer(reg).Mount(feedMux)
	mux.Handle(changefeed.PathFeed, tr.wrapFeed(feedMux))
	mux.Handle(changefeed.PathSnapshot, feedMux)
	if member != nil {
		member.Mount(mux)
	}
	telemetry.Mount(mux, tel.metrics, tel.tracer)
	telemetry.MountObservability(mux, tel.flight, nil)
	url, err := s.serve(mux)
	if err != nil {
		return nil, err
	}
	n := &regNode{reg: reg, url: url}
	s.nodes = append(s.nodes, n)
	return n, nil
}

// bootStack boots the topology a workload needs. With shards > 1 the
// public edge is a tenant gate in front of a scatter-gather router over
// HTTP backends, as cmd/routerd wires them; otherwise clients talk to the
// single registry directly.
func bootStack(shards int, tr *tracer) (*stack, error) {
	s := &stack{}
	if shards <= 1 {
		n, err := s.bootRegistry("registry-0", shard.Assignment{}, tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.edge = n.url
		return s, nil
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	backends := make([]shard.Backend, shards)
	for i := 0; i < shards; i++ {
		n, err := s.bootRegistry(fmt.Sprintf("shard-%d", i), shard.Assignment{Index: i, Total: shards}, tr)
		if err != nil {
			s.close()
			return nil, err
		}
		backends[i] = tr.wrapBackend(shard.NewHTTPBackend(n.url, hc), i)
	}
	tel := newTelemetry()
	router := shard.NewRouter(shard.Config{
		Backends: backends,
		Desc:     wsda.NewService("router").Owner("wsda").Build(),
		Metrics:  tel.metrics,
		Flight:   tel.flight,
		Logger:   discard,
		Dial:     func(base string) shard.Backend { return shard.NewHTTPBackend(base, hc) },
	})
	mux := http.NewServeMux()
	mux.Handle("/", tr.wrapRouter(router.Handler()))
	telemetry.Mount(mux, tel.metrics, nil)
	telemetry.MountObservability(mux, tel.flight, nil)
	set, err := tenant.NewSet(&tenant.Tenant{Name: "bench", Token: benchToken})
	if err != nil {
		s.close()
		return nil, err
	}
	gate := tenant.NewGate(tenant.Config{
		Set:      set,
		Capacity: tenant.DefaultCapacity,
		Node:     "router",
		Metrics:  tel.metrics,
		Flight:   tel.flight,
		Log:      discard,
	})
	edge, err := s.serve(tr.wrapGate(gate.Wrap(mux)))
	if err != nil {
		s.close()
		return nil, err
	}
	s.edge = edge
	return s, nil
}
