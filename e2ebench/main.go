// Command e2ebench is the end-to-end benchmark of the WSDA serving stack.
// It boots registries, the shard router and the tenant gate in this
// process on loopback HTTP, publishes a seeded service population through
// the public edge, and drives discovery traffic at it: a closed loop of
// nproc clients for capacity and an open loop at a fixed rate for
// latency, alternating in four rounds. Every response is checked against the benchmark's own model.
// The stack and the load generator share one core (GOMAXPROCS 1).
//
//	go run . --workload routed-read --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). README.md explains the
// workloads, the metrics and the span file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"wsda/internal/sdk"
	"wsda/internal/wsda"
)

// workloadSpec is one traffic mix against one topology.
type workloadSpec struct {
	name   string
	why    string
	tuples int     // population published at set-up
	shards int     // >1: gate + router in front of that many shards
	sdk    bool    // readers go through sdk.Client
	rate   float64 // open-loop arrivals per second, fixed
	mix    []share
	// warmLists lists every group once before measuring, filling the
	// rendered-tuple memo; warmAnalyze runs those queries once, building
	// the shared view.
	warmLists   bool
	warmAnalyze []string
}

// share is how many operations of a kind each block of the stream holds.
type share struct {
	kind opKind
	n    int
}

// workloads are the benchmark's traffic mixes. The open-loop rates are
// fixed, so a faster program shows lower latency, not a higher rate. They
// keep the one core well short of busy: at half the closed-loop capacity
// a heavy listing stalls the operations queued behind it, and the medians
// moved by 20-40% from run to run.
var workloads = []*workloadSpec{
	{
		name:   "routed-read",
		why:    "8,192 tuples on 2 shards behind gate and router, read-only; within the 8,192-entry memo, so every selection is planned",
		tuples: 8192, shards: 2, rate: 20,
		mix:       []share{{opLookup, 7}, {opFirstK, 2}, {opList, 1}},
		warmLists: true,
	},
	{
		name:   "large-registry",
		why:    "12,288 tuples in one registry, read-only; listings exceed the memo and run on a private view, analyze runs on the shared view",
		tuples: 12288, shards: 1, rate: 4,
		mix:         []share{{opLookup, 3}, {opList, 1}, {opAnalyze, 1}},
		warmAnalyze: analyzeIDs,
	},
	churnSDK(4096),
}

// Rates of churn-sdk's operation stream, per second.
const (
	// churnLookups gives the lookup class the 1,000 samples a p99 needs
	// in the 32 s open loop of a 40 s run (1,024). Most SDK lookups hit
	// the cache and cost microseconds, so they add little load; with the
	// 3/s of large-registry's split the median of 96 samples moved by half
	// from run to run.
	churnLookups = 32.0
	// churnLists gives the listing medians 64 samples per run, as
	// routed-read's listings at 2/s have; churnAnalyze is half that. Beside
	// the derived writes they keep the core about as busy as routed-read
	// keeps it.
	churnLists   = 2.0
	churnAnalyze = 1.0
	// churnProbes gives the visibility p90 its 100 samples in the open
	// loop of a 40 s run (128).
	churnProbes = 4.0
)

// churnSDK is the churn-sdk workload on a population of n tuples. Its
// writes follow from the population: a provider at the provider library's
// default operating point (TTL = 2 x refresh period) heartbeats each of
// its tuples once per tupleTTL/2, so 4,096 tuples published for 10 min
// give 13.65 heartbeats/s. Heartbeats are 30% of the writes, beside 60%
// changed republishes and 10% unpublish+republish cycles: 45.5 writes/s.
// Lookups draw keys by Zipf's law (exponent 1).
func churnSDK(n int) *workloadSpec {
	heartbeats := float64(n) / (tupleTTL / 2).Seconds()
	mix, rate := mixOf([]rateOf{
		{opSDKLookup, churnLookups}, {opSDKAnalyze, churnAnalyze}, {opPagedList, churnLists},
		{opRepublish, 2 * heartbeats}, {opRefresh, heartbeats}, {opCycle, heartbeats / 3},
		{opProbe, churnProbes},
	})
	return &workloadSpec{
		name:   "churn-sdk",
		why:    "4,096 tuples, SDK readers beside soft-state writes: exercises invalidation, the feed long-poll and the SDK miss path",
		tuples: n, shards: 1, sdk: true, rate: rate, mix: mix,
		warmLists: true,
	}
}

// rateOf is an operation kind and its rate per second.
type rateOf struct {
	kind   opKind
	perSec float64
}

// mixBlockSeconds is the span of the block a per-second mix is rounded
// to whole operations over.
const mixBlockSeconds = 20

// mixOf turns per-second rates into a block of whole operations and the
// rate the block is sent at.
func mixOf(rates []rateOf) ([]share, float64) {
	var mix []share
	total := 0
	for _, r := range rates {
		n := int(math.Round(r.perSec * mixBlockSeconds))
		mix = append(mix, share{r.kind, n})
		total += n
	}
	return mix, float64(total) / mixBlockSeconds
}

// setupReps is how many times a run sets up its stack; setup_s is the
// median. All but the last set-up are torn down again.
const setupReps = 3

// closedShare is the part of --seconds spent in the closed loop; the rest
// is the open loop.
const closedShare = 0.2

// rounds is how many slices the closed and the open loop are cut into.
// The measured time alternates between them, a closed slice before each
// open one, and capacity_ops_s is the mean of the middle half of the
// closed slices. On a
// shared host the other tenants slow the core in episodes of seconds: one
// 8-second closed loop, caught in one, read 30% low, and the capacity
// spread by 0.23-0.25 from run to run.
const rounds = 4

// procs is the Go scheduler's processor count for a run. The stack runs
// on one core and the other cores are left to the host: on a shared 2-core
// host, another tenant's single busy thread doubled list_p50_ms and halved
// capacity_ops_s with two processors, and moved them by under 10% with one.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	var (
		name    = flag.String("workload", "", "workload name: routed-read, large-registry or churn-sdk")
		seed    = flag.Int64("seed", 1, "seed for the population and the operation stream")
		seconds = flag.Int("seconds", 20, "measured seconds (closed loop plus open loop)")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing the span file")
	)
	flag.Parse()
	var w *workloadSpec
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload routed-read|large-registry|churn-sdk --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, runtime.NumCPU(), defaultSpanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// boot sets up a workload's stack from nothing: boot the servers, publish
// the population through the public edge, and arm the SDK.
func boot(w *workloadSpec, m *model, nproc int, tr *tracer) (*bench, error) {
	stride := probeStride(len(m.svcs), nproc)
	if stride == 0 {
		return nil, fmt.Errorf("a population of %d tuples is too small for %d workers", len(m.svcs), nproc)
	}
	st, err := bootStack(w.shards, tr)
	if err != nil {
		return nil, err
	}
	wc := wsda.NewClient(st.edge)
	wc.HTTP = newLoadClient(nproc)
	if w.shards > 1 {
		wc.Token = benchToken
	}
	b := &bench{w: w, m: m, st: st, wc: wc, tr: tr, nproc: nproc, stride: stride}
	for i := b.stride - 1; i < len(m.svcs); i += b.stride {
		b.probe = append(b.probe, i)
	}
	if err := b.populate(); err != nil {
		b.close()
		return nil, err
	}
	if w.sdk {
		// The SDK gets its own transport: its feed tail holds one
		// connection in a long-poll beside the nproc query connections.
		c, err := sdk.New(sdk.Config{Origin: st.edge, HTTP: newLoadClient(nproc + 1), Log: discard})
		if err != nil {
			b.close()
			return nil, err
		}
		c.Start()
		b.sdk = c
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.WaitCursor(ctx, 0); err != nil {
			b.close()
			return nil, fmt.Errorf("arming the SDK: %w", err)
		}
	}
	return b, nil
}

// populate publishes the population on nproc workers.
func (b *bench) populate() error {
	return b.forEach(len(b.m.svcs), func(i int) error {
		if _, err := b.wc.Publish(b.m.tuple(i), tupleTTL); err != nil {
			return fmt.Errorf("publish %d: %w", i, err)
		}
		return nil
	})
}

func (b *bench) close() {
	if b.sdk != nil {
		b.sdk.Close()
	}
	b.st.close()
}

// registryStats sums the view counters over the stack's registries.
func (b *bench) registryStats() (hits, misses, rebuilds int64) {
	for _, n := range b.st.nodes {
		s := n.reg.Stats()
		hits += s.ViewHits
		misses += s.ViewMisses
		rebuilds += s.ViewRebuilds
	}
	return
}

// procSnap is the process counters an operation's cost is derived from.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	pauseNs uint64
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
	}
}

// run sets up, warms and measures one workload with nproc load workers
// and connections. A traced run writes its span file into spanDir.
func run(w *workloadSpec, seed int64, total time.Duration, traced bool, nproc int, spanDir string) (*summary, error) {
	m := newModel(seed, w.tuples)
	closedDur := time.Duration(float64(total) * closedShare)
	openDur := total - closedDur
	host := fingerprint()
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%.0f trace=%v\n", w.name, seed, total.Seconds(), traced)
	fmt.Printf("# host: %s\n", host)
	fmt.Printf("# population=%d shards=%d sdk=%v open-loop-rate=%.0f/s workers=%d mix=%s\n",
		w.tuples, w.shards, w.sdk, w.rate, nproc, mixString(w))
	fmt.Printf("# why: %s\n", w.why)

	ref0 := hostRef()
	all := newSamples()
	var setup, capUntraced float64
	var b *bench
	if !traced {
		var setups []float64
		for k := 0; k < setupReps; k++ {
			t0 := time.Now()
			nb, err := boot(w, m, nproc, nil)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if k < setupReps-1 {
				nb.close()
				continue
			}
			b = nb
		}
		setup = median(setups)
	} else {
		// The untraced reference: same set-up, warm-up and closed loop,
		// no wrappers, for the tracing overhead. Its writes go to a model
		// of its own, so the traced stack's oracle starts clean.
		ub, err := boot(w, newModel(seed, w.tuples), nproc, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := ub.warm(); err != nil {
			ub.close()
			return nil, err
		}
		ref := ub.measure(seed, closedDur, 0)
		mergeCounts(all, ref.closed)
		capUntraced = ref.capacity
		ub.close()
		tr := newTracer()
		if b, err = boot(w, m, nproc, tr); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	defer b.close()
	if err := b.warm(); err != nil {
		return nil, err
	}

	ph := b.measure(seed, closedDur, openDur)
	open := ph.open
	mergeCounts(all, ph.closed)
	mergeCounts(all, open)
	fmt.Printf("# closed loop: %s correct ops per CPU second in its %d slices, middle half %.1f (capacity_ops_s); %.1f per wall second\n",
		fmtSlices(ph.slices), rounds, ph.capacity, ph.capWall)
	fmt.Printf("# host reference: SHA-256 of 8 MiB takes %.2f ms before the run, %.2f ms after the open loop (median of 5)\n",
		ref0, hostRef())

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	capacity, inflight := ph.capacity, ph.inflight
	invalid := inflight > nproc
	e2e := e2eMetrics(open)
	e2e["capacity_ops_s"] = metric{capacity, "1/s"}
	e2e["heap_live_mb"] = metric{heapMB, "MB"}
	if !traced {
		e2e["setup_s"] = metric{setup, "s"}
	}
	e2e["failed_ratio"] = metric{float64(all.failed) / float64(max(all.attempted, 1)), "ratio"}
	printE2E(e2e, open)
	fmt.Printf("# open loop: %d ops, in flight at the end %d (largest over its slices of the median over each one's last tenth; workers %d)\n", open.attempted, inflight, nproc)
	if invalid {
		fmt.Println("# INVALID: the open-loop backlog grew; latencies of this run are not a latency figure, so correct is false")
	}
	for _, e := range all.errs {
		fmt.Println("# failure:", e)
	}

	sum := summary{Correct: all.failed == 0 && !invalid, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, k := range reportedE2E {
			sum.Metrics[k] = e2e[k]
		}
		return &sum, nil
	}

	ops := float64(max(open.attempted, 1))
	overhead := 0.0
	if capacity > 0 {
		overhead = 100 * (capUntraced/capacity - 1)
	}
	layer := map[string]metric{
		"trace.capacity_untraced_ops_s": {capUntraced, "1/s"},
		"trace.capacity_traced_ops_s":   {capacity, "1/s"},
		"trace.overhead_pct":            {overhead, "%"},
		"registry.view_hits":            {float64(ph.viewHits), "count"},
		"registry.view_misses":          {float64(ph.viewMisses), "count"},
		"registry.view_rebuilds":        {float64(ph.viewRebuilds), "count"},
		"loadgen.lag_p99_ms":            {pct(open.lag, 0.99), "ms"},
		"loadgen.inflight_end":          {float64(inflight), "count"},
		"loadgen.invalid":               {b2f(invalid), "bool"},
		"process.cpu_ms_per_op":         {float64(ph.proc.cpu) / 1e6 / ops, "ms"},
		"process.allocs_per_op":         {float64(ph.proc.mallocs) / ops, "count"},
		"process.gc_pause_ms_total":     {float64(ph.proc.pauseNs) / 1e6, "ms"},
	}
	for _, c := range classes {
		n := len(open.latency[c])
		if c == clsVisibility {
			n = len(open.visible)
		}
		layer["loadgen."+c+".samples"] = metric{float64(n), "count"}
	}
	sdkD := ph.sdk
	writes := len(open.latency[clsPublish]) + len(open.visible)
	spans := b.tr.link(w.shards > 1)
	for k, v := range layerMetrics(spans, sdkD, writes) {
		layer[k] = v
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	layer["trace.spans"] = metric{float64(len(spans)), "count"}
	printLayer(layer)
	fmt.Printf("# span file: %s (%d spans)\n", path, len(spans))
	for _, k := range reportedLayer {
		v, ok := layer[k]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", k)
		}
		sum.Metrics[k] = v
	}
	return &sum, nil
}

// phases is what the measured part of a run produced.
type phases struct {
	slices            []float64 // capacity of each closed slice
	capacity, capWall float64   // midMean over the slices, per CPU and per wall second
	closed, open      *samples
	inflight          int // largest backlog at the end of an open slice
	// Deltas over the open slices.
	proc                               procSnap
	viewHits, viewMisses, viewRebuilds int64
	sdk                                sdk.Stats
}

// measure runs the closed loop for closedDur and the open loop for
// openDur, cut into rounds slices each and alternating, a closed slice
// first. Every slice starts right after a collection, so each starts at
// the same point of the collector's cycle. The tracer records the open
// slices only.
func (b *bench) measure(seed int64, closedDur, openDur time.Duration) *phases {
	p := &phases{closed: newSamples(), open: newSamples()}
	drawers := b.closedDrawers(seed)
	stream := b.openStream(seed, int(b.w.rate*openDur.Seconds()))
	slice := closedDur / rounds
	var walls []float64
	b.tr.reset()
	for r := 0; r < rounds; r++ {
		// The first slice runs an uncounted second longer: right after the
		// untimed warm-up its first second ran up to a third slower.
		warm := time.Duration(0)
		if r == 0 {
			warm = min(time.Second, slice)
		}
		b.tr.pause(true)
		runtime.GC()
		c, cw := b.closedLoop(drawers, warm+slice, warm, p.closed)
		p.slices = append(p.slices, c)
		walls = append(walls, cw)
		seg := stream[r*len(stream)/rounds : (r+1)*len(stream)/rounds]
		if len(seg) == 0 {
			continue
		}
		runtime.GC()
		h0, m0, r0 := b.registryStats()
		s0, p0 := b.sdkStats(), snapProc()
		b.tr.pause(false)
		p.inflight = max(p.inflight, b.openLoop(seg, p.open))
		b.tr.pause(true)
		p1, s1 := snapProc(), b.sdkStats()
		h1, m1, r1 := b.registryStats()
		p.proc.cpu += p1.cpu - p0.cpu
		p.proc.mallocs += p1.mallocs - p0.mallocs
		p.proc.pauseNs += p1.pauseNs - p0.pauseNs
		p.viewHits += h1 - h0
		p.viewMisses += m1 - m0
		p.viewRebuilds += r1 - r0
		p.sdk.Hits += s1.Hits - s0.Hits
		p.sdk.Misses += s1.Misses - s0.Misses
		p.sdk.Invalidations += s1.Invalidations - s0.Invalidations
		p.sdk.ColdDrops += s1.ColdDrops - s0.ColdDrops
	}
	p.capacity, p.capWall = midMean(p.slices), midMean(walls)
	return p
}

// sdkStats is the SDK's counters, zero without an SDK.
func (b *bench) sdkStats() sdk.Stats {
	if b.sdk == nil {
		return sdk.Stats{}
	}
	return b.sdk.Stats()
}

func fmtSlices(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, " ")
}

// defaultSpanDir receives span files, relative to the working directory.
const defaultSpanDir = ".bench_out"

func mergeCounts(dst, src *samples) {
	dst.attempted += src.attempted
	dst.failed += src.failed
	for _, e := range src.errs {
		if len(dst.errs) < 5 {
			dst.errs = append(dst.errs, e)
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func mixString(w *workloadSpec) string {
	names := map[opKind]string{
		opLookup: "link-lookup", opFirstK: "first-5", opList: "list", opAnalyze: "analyze",
		opSDKLookup: "sdk-lookup", opSDKAnalyze: "sdk-analyze", opPagedList: "paged-list",
		opRepublish: "republish", opRefresh: "refresh", opCycle: "unpublish+republish", opProbe: "visibility-probe",
	}
	block := 0
	for _, s := range w.mix {
		block += s.n
	}
	var parts []string
	for _, s := range w.mix {
		parts = append(parts, fmt.Sprintf("%s:%.1f%%", names[s.kind], 100*float64(s.n)/float64(block)))
	}
	return strings.Join(parts, ",")
}

// ---- statistics --------------------------------------------------------

// pct is the nearest-rank percentile of xs (0 when empty).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

// midMean is the mean of the middle half of xs (of all of xs when it
// holds fewer than four values).
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q := len(s) / 4; q > 0 {
		s = s[q : len(s)-q]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(max(len(s), 1))
}

// reportedE2E are the end-to-end metrics of the JSON line: those every
// workload exercises and that repeat within their bounds from run to run
// on a shared 2-core host. The tail percentiles, the class-specific
// metrics (analyze, publish, visibility), failed_ratio and
// capacity_ops_s are printed above it. On churn-sdk whole runs of the same
// seed read capacity_ops_s 20-25% apart (about 360/s or 450/s per CPU
// second), so it spread by 0.20-0.25 from run to run, at its bound.
var reportedE2E = []string{
	"setup_s", "lookup_p50_ms", "list_first_item_p50_ms", "list_p50_ms", "heap_live_mb",
}

// e2eNames orders the printed end-to-end metrics.
var e2eNames = []string{
	"setup_s", "capacity_ops_s", "lookup_p50_ms", "lookup_p99_ms",
	"list_first_item_p50_ms", "list_first_item_p90_ms", "list_p50_ms", "list_p90_ms",
	"analyze_p50_ms", "analyze_p90_ms", "publish_p50_ms", "publish_p99_ms",
	"visibility_p50_ms", "visibility_p90_ms", "failed_ratio", "heap_live_mb",
}

func e2eMetrics(s *samples) map[string]metric {
	out := map[string]metric{}
	put := func(name string, xs []float64, p float64) {
		if len(xs) > 0 {
			out[name] = metric{pct(xs, p), "ms"}
		}
	}
	put("lookup_p50_ms", s.latency[clsLookup], 0.50)
	put("lookup_p99_ms", s.latency[clsLookup], 0.99)
	put("list_first_item_p50_ms", s.first, 0.50)
	put("list_first_item_p90_ms", s.first, 0.90)
	put("list_p50_ms", s.latency[clsList], 0.50)
	put("list_p90_ms", s.latency[clsList], 0.90)
	put("analyze_p50_ms", s.latency[clsAnalyze], 0.50)
	put("analyze_p90_ms", s.latency[clsAnalyze], 0.90)
	put("publish_p50_ms", s.latency[clsPublish], 0.50)
	put("publish_p99_ms", s.latency[clsPublish], 0.99)
	put("visibility_p50_ms", s.visible, 0.50)
	put("visibility_p90_ms", s.visible, 0.90)
	return out
}

// printE2E prints every end-to-end metric; a latency percentile also
// shows how many samples it was taken over.
func printE2E(e2e map[string]metric, s *samples) {
	counts := map[string]int{
		clsLookup: len(s.latency[clsLookup]), clsList: len(s.latency[clsList]),
		clsAnalyze: len(s.latency[clsAnalyze]), clsPublish: len(s.latency[clsPublish]),
		clsVisibility: len(s.visible),
	}
	for _, k := range e2eNames {
		if v, ok := e2e[k]; ok {
			n := ""
			if c, ok := counts[strings.Split(k, "_")[0]]; ok {
				n = fmt.Sprintf("  (%d samples)", c)
			}
			fmt.Printf("%-26s %12.4f %s%s\n", k, v.Value, v.Unit, n)
		} else {
			fmt.Printf("%-26s %12s (not measured in this run)\n", k, "n/a")
		}
	}
}

func printLayer(layer map[string]metric) {
	keys := make([]string, 0, len(layer))
	for k := range layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.4f %s\n", k, layer[k].Value, layer[k].Unit)
	}
}
